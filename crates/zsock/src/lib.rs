//! # knet-zsock — zero-copy socket protocols and the TCP/IP baseline
//!
//! The paper's second in-kernel application (§5.3): SOCKETS-GM and
//! SOCKETS-MX give unmodified socket applications the Myrinet network by
//! adding a socket protocol that bypasses TCP/IP. Both ride the channel
//! API ([`stream`] opens a handler-backed channel per socket and sends
//! every frame through `channel_send`/`channel_post_recv`); the SOCKETS-GM
//! dispatcher-thread penalty and the zero-copy receive steering are where
//! the figure-8 gap comes from. [`tcp`] provides the TCP/IP-over-GigE
//! reference.

pub mod params;
pub mod stream;
pub mod tcp;

pub use stream::{
    sock_close, sock_create, sock_on_event, sock_recv, sock_send, Sock, SockId, SockOpId,
    SockResult, SockStats, ZsockLayer, ZsockWorld, SOCK_SLOT_BITS,
};
pub use tcp::{
    tcp_pair, tcp_recv, tcp_send, TcpLayer, TcpOpId, TcpSock, TcpSockId, TcpStats, TcpWorld,
};
