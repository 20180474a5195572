//! The ORFA wire protocol: request/response encoding.
//!
//! ORFA (Optimized Remote File-system Access, §3.1) is a point-to-point RPC
//! between one client and one server. Control messages are small and travel
//! through the transports' bounce paths; bulk data travels as separate
//! tagged messages that land zero-copy in posted buffers (read replies) or
//! ride vectorially behind the request header (MX writes).
//!
//! Encoding is explicit little-endian (length-prefixed strings), as it
//! would be on the wire; round-trips are property-tested.

use knet_core::wire::{self, Dec, Enc, Truncated};
use knet_simcore::SimTime;
use knet_simfs::{Attr, DirEntry, FileType, FsError};

/// Tag bit marking a request's companion message: an announced write's
/// payload toward the server, a refused read's `Response::Err` toward the
/// client.
pub const DATA_TAG_BIT: u64 = 1 << 63;

// It is the one bit request ids (minted by `knet_core::ReqTable`) leave
// free, which the shared storage client reads as a refusal.
const _: () = assert!(DATA_TAG_BIT == !knet_core::REQ_ID_MASK);

/// Largest write payload sent inline behind its header; larger writes are
/// announced first and stream into a server-posted buffer (staying inside
/// the transports' eager regime — MX rendezvous needs a posted receive).
pub const WRITE_INLINE_MAX: u64 = 24 * 1024;

/// Everything that can go wrong at the protocol level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OrfsError {
    Fs(FsError),
    /// Malformed message.
    Decode,
    /// Server-side handle is unknown.
    BadHandle,
    /// Transport failure.
    Net,
    /// The caller's buffer is not mapped (`EFAULT`).
    Fault,
    /// A server that stays up left a request of the operation silent for
    /// `knet_core::req::CALL_HORIZON` after its last send completed, with
    /// no reply arriving (raised by the client; the reply buffer was
    /// withdrawn, a late reply dropped).
    Deadline,
}

impl From<FsError> for OrfsError {
    fn from(e: FsError) -> Self {
        OrfsError::Fs(e)
    }
}

impl From<Truncated> for OrfsError {
    fn from(_: Truncated) -> Self {
        OrfsError::Decode
    }
}

/// A client request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Resolve one name in a directory.
    Lookup {
        dir: u32,
        name: String,
    },
    Getattr {
        ino: u32,
    },
    SetattrMode {
        ino: u32,
        mode: u16,
    },
    Create {
        dir: u32,
        name: String,
        mode: u16,
    },
    Mkdir {
        dir: u32,
        name: String,
        mode: u16,
    },
    Unlink {
        dir: u32,
        name: String,
    },
    Rmdir {
        dir: u32,
        name: String,
    },
    Readdir {
        ino: u32,
    },
    Symlink {
        dir: u32,
        name: String,
        target: String,
    },
    Readlink {
        ino: u32,
    },
    Rename {
        fdir: u32,
        fname: String,
        tdir: u32,
        tname: String,
    },
    Truncate {
        ino: u32,
        size: u64,
    },
    Open {
        ino: u32,
    },
    Close {
        handle: u32,
    },
    /// Read `len` bytes at `offset`; the reply is a bare data message with
    /// the request's tag (its length is the result).
    Read {
        handle: u32,
        offset: u64,
        len: u64,
    },
    /// Write `len` bytes at `offset`. On MX the data rides in the same
    /// vectorial message right after this header; on GM it follows as the
    /// bytes after the header in a single copied message (§4.1: GM has no
    /// vectorial primitives, so the client must coalesce).
    Write {
        handle: u32,
        offset: u64,
        len: u64,
    },
}

/// A server response to a metadata request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    Err(OrfsError),
    Ino(u32),
    Attr(WireAttr),
    Handle(u32),
    Written(u64),
    Entries(Vec<WireDirEntry>),
    Target(String),
    Unit,
}

/// Attributes as serialized (SimTime flattened to nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireAttr {
    pub ino: u32,
    pub ftype: u8,
    pub size: u64,
    pub nlink: u32,
    pub mode: u16,
    pub mtime_ns: u64,
}

/// Directory entry as serialized.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireDirEntry {
    pub name: String,
    pub ino: u32,
    pub ftype: u8,
}

pub fn ftype_to_u8(t: FileType) -> u8 {
    match t {
        FileType::Regular => 0,
        FileType::Directory => 1,
        FileType::Symlink => 2,
    }
}

impl WireAttr {
    pub fn from_attr(a: &Attr) -> Self {
        WireAttr {
            ino: a.ino.0,
            ftype: ftype_to_u8(a.ftype),
            size: a.size,
            nlink: a.nlink,
            mode: a.mode,
            mtime_ns: a.mtime.nanos(),
        }
    }
}

impl WireDirEntry {
    pub fn from_entry(e: &DirEntry) -> Self {
        WireDirEntry {
            name: e.name.clone(),
            ino: e.ino.0,
            ftype: ftype_to_u8(e.ftype),
        }
    }
}

/// A length-prefixed UTF-8 string.
fn string(d: &mut Dec) -> Result<String, OrfsError> {
    String::from_utf8(d.bytes_u16()?.to_vec()).map_err(|_| OrfsError::Decode)
}

// ---- request ----------------------------------------------------------------

const OP_LOOKUP: u8 = 1;
const OP_GETATTR: u8 = 2;
const OP_SETATTR: u8 = 3;
const OP_CREATE: u8 = 4;
const OP_MKDIR: u8 = 5;
const OP_UNLINK: u8 = 6;
const OP_RMDIR: u8 = 7;
const OP_READDIR: u8 = 8;
const OP_SYMLINK: u8 = 9;
const OP_READLINK: u8 = 10;
const OP_RENAME: u8 = 11;
const OP_TRUNCATE: u8 = 12;
const OP_OPEN: u8 = 13;
const OP_CLOSE: u8 = 14;
const OP_READ: u8 = 15;
const OP_WRITE: u8 = 16;

impl Request {
    /// Size of an encoded `Write` header — the data offset inside a
    /// coalesced GM write message.
    pub const WRITE_HEADER_LEN: usize = 1 + 4 + 8 + 8;

    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        let e = Enc::new(&mut buf);
        match self {
            Request::Lookup { dir, name } => e.u8(OP_LOOKUP).u32(*dir).bytes_u16(name),
            Request::Getattr { ino } => e.u8(OP_GETATTR).u32(*ino),
            Request::SetattrMode { ino, mode } => e.u8(OP_SETATTR).u32(*ino).u16(*mode),
            Request::Create { dir, name, mode } => {
                e.u8(OP_CREATE).u32(*dir).u16(*mode).bytes_u16(name)
            }
            Request::Mkdir { dir, name, mode } => {
                e.u8(OP_MKDIR).u32(*dir).u16(*mode).bytes_u16(name)
            }
            Request::Unlink { dir, name } => e.u8(OP_UNLINK).u32(*dir).bytes_u16(name),
            Request::Rmdir { dir, name } => e.u8(OP_RMDIR).u32(*dir).bytes_u16(name),
            Request::Readdir { ino } => e.u8(OP_READDIR).u32(*ino),
            Request::Symlink { dir, name, target } => {
                e.u8(OP_SYMLINK).u32(*dir).bytes_u16(name).bytes_u16(target)
            }
            Request::Readlink { ino } => e.u8(OP_READLINK).u32(*ino),
            Request::Rename {
                fdir,
                fname,
                tdir,
                tname,
            } => e
                .u8(OP_RENAME)
                .u32(*fdir)
                .bytes_u16(fname)
                .u32(*tdir)
                .bytes_u16(tname),
            Request::Truncate { ino, size } => e.u8(OP_TRUNCATE).u32(*ino).u64(*size),
            Request::Open { ino } => e.u8(OP_OPEN).u32(*ino),
            Request::Close { handle } => e.u8(OP_CLOSE).u32(*handle),
            Request::Read {
                handle,
                offset,
                len,
            } => e.u8(OP_READ).u32(*handle).u64(*offset).u64(*len),
            Request::Write {
                handle,
                offset,
                len,
            } => e.u8(OP_WRITE).u32(*handle).u64(*offset).u64(*len),
        };
        buf
    }

    /// Decode a request header; returns the request and the number of bytes
    /// consumed (a `Write` header is followed by its payload).
    pub fn decode(buf: &[u8]) -> Result<(Request, usize), OrfsError> {
        let mut d = Dec::new(buf);
        let op = d.u8()?;
        let req = match op {
            OP_LOOKUP => Request::Lookup {
                dir: d.u32()?,
                name: string(&mut d)?,
            },
            OP_GETATTR => Request::Getattr { ino: d.u32()? },
            OP_SETATTR => Request::SetattrMode {
                ino: d.u32()?,
                mode: d.u16()?,
            },
            // Fields are read in the order they are written here.
            OP_CREATE => Request::Create {
                dir: d.u32()?,
                mode: d.u16()?,
                name: string(&mut d)?,
            },
            OP_MKDIR => Request::Mkdir {
                dir: d.u32()?,
                mode: d.u16()?,
                name: string(&mut d)?,
            },
            OP_UNLINK => Request::Unlink {
                dir: d.u32()?,
                name: string(&mut d)?,
            },
            OP_RMDIR => Request::Rmdir {
                dir: d.u32()?,
                name: string(&mut d)?,
            },
            OP_READDIR => Request::Readdir { ino: d.u32()? },
            OP_SYMLINK => Request::Symlink {
                dir: d.u32()?,
                name: string(&mut d)?,
                target: string(&mut d)?,
            },
            OP_READLINK => Request::Readlink { ino: d.u32()? },
            OP_RENAME => Request::Rename {
                fdir: d.u32()?,
                fname: string(&mut d)?,
                tdir: d.u32()?,
                tname: string(&mut d)?,
            },
            OP_TRUNCATE => Request::Truncate {
                ino: d.u32()?,
                size: d.u64()?,
            },
            OP_OPEN => Request::Open { ino: d.u32()? },
            OP_CLOSE => Request::Close { handle: d.u32()? },
            OP_READ => Request::Read {
                handle: d.u32()?,
                offset: d.u64()?,
                len: d.u64()?,
            },
            OP_WRITE => Request::Write {
                handle: d.u32()?,
                offset: d.u64()?,
                len: d.u64()?,
            },
            _ => return Err(OrfsError::Decode),
        };
        Ok((req, d.pos()))
    }
}

// ---- response ------------------------------------------------------------------

const R_ERR: u8 = 0;
const R_INO: u8 = 1;
const R_ATTR: u8 = 2;
const R_HANDLE: u8 = 3;
const R_WRITTEN: u8 = 4;
const R_ENTRIES: u8 = 5;
const R_TARGET: u8 = 6;
const R_UNIT: u8 = 7;

/// File-system errors (class 0): `FS_ERRORS[i]` travels as code `i + 1`.
const FS_ERRORS: [FsError; 11] = [
    FsError::NotFound,
    FsError::Exists,
    FsError::NotDirectory,
    FsError::IsDirectory,
    FsError::NotEmpty,
    FsError::NoSpace,
    FsError::NoInodes,
    FsError::NameTooLong,
    FsError::InvalidPath,
    FsError::FileTooBig,
    FsError::NotSymlink,
];

/// The other error classes: `CLASSES[i]` travels as class `i + 1`, with
/// code 0. An unknown class reads as `Net`.
const CLASSES: [OrfsError; 4] = [
    OrfsError::Decode,
    OrfsError::BadHandle,
    OrfsError::Net,
    OrfsError::Fault,
];

fn error_code(e: OrfsError) -> (u8, u8) {
    match e {
        OrfsError::Fs(f) => (0, wire::code_of(&FS_ERRORS, f)),
        // `Deadline` is the client's own verdict; no server sends it.
        OrfsError::Deadline => (wire::code_of(&CLASSES, OrfsError::Net), 0),
        e => (wire::code_of(&CLASSES, e), 0),
    }
}

fn error_from(class: u8, code: u8) -> OrfsError {
    match class {
        0 => wire::from_code(&FS_ERRORS, code).map_or(OrfsError::Decode, OrfsError::Fs),
        _ => wire::from_code(&CLASSES, class).unwrap_or(OrfsError::Net),
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        let e = Enc::new(&mut buf);
        match self {
            Response::Err(err) => {
                let (class, code) = error_code(*err);
                e.u8(R_ERR).u8(class).u8(code)
            }
            Response::Ino(i) => e.u8(R_INO).u32(*i),
            Response::Attr(a) => e
                .u8(R_ATTR)
                .u32(a.ino)
                .u8(a.ftype)
                .u64(a.size)
                .u32(a.nlink)
                .u16(a.mode)
                .u64(a.mtime_ns),
            Response::Handle(h) => e.u8(R_HANDLE).u32(*h),
            Response::Written(n) => e.u8(R_WRITTEN).u64(*n),
            Response::Entries(es) => {
                let mut e = e.u8(R_ENTRIES).u32(es.len() as u32);
                for entry in es {
                    e = e.u32(entry.ino).u8(entry.ftype).bytes_u16(&entry.name);
                }
                e
            }
            Response::Target(t) => e.u8(R_TARGET).bytes_u16(t),
            Response::Unit => e.u8(R_UNIT),
        };
        buf
    }

    pub fn decode(buf: &[u8]) -> Result<Response, OrfsError> {
        let mut d = Dec::new(buf);
        let kind = d.u8()?;
        let r = match kind {
            R_ERR => {
                let class = d.u8()?;
                let code = d.u8()?;
                Response::Err(error_from(class, code))
            }
            R_INO => Response::Ino(d.u32()?),
            R_ATTR => Response::Attr(WireAttr {
                ino: d.u32()?,
                ftype: d.u8()?,
                size: d.u64()?,
                nlink: d.u32()?,
                mode: d.u16()?,
                mtime_ns: d.u64()?,
            }),
            R_HANDLE => Response::Handle(d.u32()?),
            R_WRITTEN => Response::Written(d.u64()?),
            R_ENTRIES => {
                let n = d.u32()? as usize;
                if n > 1 << 20 {
                    return Err(OrfsError::Decode);
                }
                let mut es = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    es.push(WireDirEntry {
                        ino: d.u32()?,
                        ftype: d.u8()?,
                        name: string(&mut d)?,
                    });
                }
                Response::Entries(es)
            }
            R_TARGET => Response::Target(string(&mut d)?),
            R_UNIT => Response::Unit,
            _ => return Err(OrfsError::Decode),
        };
        if !d.rest().is_empty() {
            return Err(OrfsError::Decode);
        }
        Ok(r)
    }
}

/// Host CPU cost to encode or decode one protocol message.
pub fn codec_cost() -> SimTime {
    SimTime::from_nanos(180)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let enc = r.encode();
        let (dec, used) = Request::decode(&enc).unwrap();
        assert_eq!(dec, r);
        assert_eq!(used, enc.len(), "header must consume the whole encoding");
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Lookup {
            dir: 1,
            name: "some-file.txt".into(),
        });
        roundtrip_req(Request::Getattr { ino: 42 });
        roundtrip_req(Request::SetattrMode {
            ino: 7,
            mode: 0o640,
        });
        roundtrip_req(Request::Create {
            dir: 3,
            name: "x".into(),
            mode: 0o644,
        });
        roundtrip_req(Request::Mkdir {
            dir: 1,
            name: "subdir".into(),
            mode: 0o755,
        });
        roundtrip_req(Request::Unlink {
            dir: 1,
            name: "gone".into(),
        });
        roundtrip_req(Request::Rmdir {
            dir: 1,
            name: "d".into(),
        });
        roundtrip_req(Request::Readdir { ino: 1 });
        roundtrip_req(Request::Symlink {
            dir: 1,
            name: "l".into(),
            target: "/a/b".into(),
        });
        roundtrip_req(Request::Readlink { ino: 9 });
        roundtrip_req(Request::Rename {
            fdir: 1,
            fname: "old".into(),
            tdir: 2,
            tname: "new".into(),
        });
        roundtrip_req(Request::Truncate {
            ino: 5,
            size: 12345,
        });
        roundtrip_req(Request::Open { ino: 6 });
        roundtrip_req(Request::Close { handle: 3 });
        roundtrip_req(Request::Read {
            handle: 1,
            offset: 1 << 40,
            len: 65536,
        });
        roundtrip_req(Request::Write {
            handle: 2,
            offset: 0,
            len: 4096,
        });
    }

    #[test]
    fn write_header_length_constant_is_right() {
        let r = Request::Write {
            handle: 1,
            offset: 2,
            len: 3,
        };
        assert_eq!(r.encode().len(), Request::WRITE_HEADER_LEN);
    }

    #[test]
    fn response_roundtrips() {
        for r in [
            Response::Err(OrfsError::Fs(FsError::NotFound)),
            Response::Err(OrfsError::BadHandle),
            Response::Err(OrfsError::Net),
            Response::Err(OrfsError::Fault),
            Response::Ino(77),
            Response::Attr(WireAttr {
                ino: 3,
                ftype: 1,
                size: 999,
                nlink: 2,
                mode: 0o755,
                mtime_ns: 123_456_789,
            }),
            Response::Handle(12),
            Response::Written(4096),
            Response::Entries(vec![
                WireDirEntry {
                    name: "a".into(),
                    ino: 2,
                    ftype: 0,
                },
                WireDirEntry {
                    name: "b".into(),
                    ino: 3,
                    ftype: 1,
                },
            ]),
            Response::Target("/x/y".into()),
            Response::Unit,
        ] {
            let enc = r.encode();
            assert_eq!(Response::decode(&enc).unwrap(), r);
        }
    }

    #[test]
    fn truncated_messages_fail_cleanly() {
        let enc = Request::Lookup {
            dir: 1,
            name: "hello".into(),
        }
        .encode();
        for cut in 0..enc.len() {
            assert_eq!(
                Request::decode(&enc[..cut]).err(),
                Some(OrfsError::Decode),
                "cut at {cut}"
            );
        }
        assert!(Response::decode(&[]).is_err());
        assert!(Response::decode(&[99]).is_err());
    }

    #[test]
    fn trailing_garbage_in_response_is_rejected() {
        let mut enc = Response::Unit.encode().to_vec();
        enc.push(0);
        assert_eq!(Response::decode(&enc), Err(OrfsError::Decode));
    }

    #[test]
    fn write_decode_reports_header_size() {
        let hdr = Request::Write {
            handle: 9,
            offset: 100,
            len: 5,
        }
        .encode();
        let mut msg = hdr.to_vec();
        msg.extend_from_slice(b"data!");
        let (req, used) = Request::decode(&msg).unwrap();
        assert_eq!(used, Request::WRITE_HEADER_LEN);
        assert!(matches!(req, Request::Write { len: 5, .. }));
        assert_eq!(&msg[used..], b"data!");
    }
}
