//! # knet-orfs — ORFA/ORFS: optimized remote file access
//!
//! The paper's main in-kernel application (§3): a remote file-access
//! protocol with a user-space client (**ORFA**, an interception library) and
//! an in-kernel client (**ORFS**, a VFS file system with dentry/attribute
//! caches, a page-cache buffered path, and an `O_DIRECT` zero-copy path),
//! plus the server running on the ext2-like `knet-simfs`.
//!
//! Everything is written against the unified transport of `knet-core`, so
//! the same client measures GM and MX — the paper's §5.2 method.

pub mod client;
pub mod layer;
pub mod proto;
pub mod server;

pub use client::{
    client_create, client_on_event, op_close, op_create, op_fsync, op_mkdir, op_open, op_read,
    op_readdir, op_readlink, op_rmdir, op_stat, op_symlink, op_truncate, op_unlink, op_write,
    ClientKind, ClientStats, OpenFile, OrfsClient, SysResult, SysRet, SyscallId, VfsConfig,
};
pub use layer::{OrfsClientId, OrfsLayer, OrfsServerId, OrfsWorld};
pub use proto::{OrfsError, Request, Response, WireAttr, WireDirEntry};
pub use server::{server_attach_endpoint, server_create, server_on_event, OrfsServer, ServerStats};
