//! The SRB wire protocol.
//!
//! Every operation is a synchronous request/response exchange — the client
//! sends a request message over its TCP stream and blocks for the server's
//! response. This is the protocol economics that makes SEMPLAR's
//! asynchronous primitives valuable: each synchronous call pays one full
//! round trip, and on a 182 ms transoceanic path (DAS-2 → SDSC) those RTTs
//! dominate small operations.

use crate::types::{ObjStat, OpenFlags, Payload, SrbError};

/// Fixed per-message framing/header overhead, bytes.
///
/// The session/transport tags ([`ReqFrame::seq`], [`ReqFrame::session`])
/// ride inside this fixed header, so tagging requests does not change any
/// wire size.
pub const WIRE_HDR: u64 = 256;

/// A logical session identifier, scoped to one transport stream.
///
/// The server keeps one fd namespace per `(connection, session)` pair so
/// pooled clients sharing a stream cannot observe each other's
/// descriptors. A per-open stream carries exactly one session, id 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A tenant (accounting principal) tag carried by every request.
///
/// The SRB authenticates a user per connection; a *tenant* is the coarser
/// billing/QoS domain a session belongs to — one project or user community
/// sharing a server. The tag rides in the fixed [`WIRE_HDR`] header (like
/// `seq`/`session`, there is room in the real SRB's 256-byte header), so
/// tagging changes no wire size, and the server's per-tenant fair queueing
/// can classify work without any out-of-band state. Tenant 0 is the
/// default for untagged traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A tagged request as it travels on a transport stream.
///
/// `seq` is unique per stream and echoed verbatim by the server so that a
/// demultiplexer can route responses back to the issuing exchange even when
/// several are in flight on one stream.
#[derive(Clone, Debug)]
pub struct ReqFrame {
    /// Stream-unique exchange tag, echoed in the matching [`RespFrame`].
    pub seq: u64,
    /// Session whose fd namespace the request operates in.
    pub session: SessionId,
    /// Tenant the issuing session belongs to (0 = untagged).
    pub tenant: TenantId,
    /// Shard membership epoch the issuing client believes is current.
    /// Rides the spare space in the fixed [`WIRE_HDR`] header (like
    /// `seq`/`session`/`tenant`), so epoch tagging changes no wire size.
    /// `0` means "un-epoched" — the client is not under membership
    /// governance and the server never stale-checks it (though a
    /// post-restart hard fence still refuses its mutations until the
    /// server's epoch is re-certified). Servers with epoch fencing enabled
    /// reject mutations whose non-zero epoch is stale (below the server's
    /// certified epoch) with
    /// [`SrbError`](crate::types::SrbError)`::StaleEpoch`.
    pub epoch: u64,
    /// The operation itself.
    pub req: Request,
}

impl ReqFrame {
    /// Bytes on the wire — tags live in the fixed header, so this is the
    /// inner request's size unchanged.
    pub fn wire_size(&self) -> u64 {
        self.req.wire_size()
    }
}

/// A tagged response frame; `seq`/`session` echo the triggering request.
#[derive(Clone, Debug)]
pub struct RespFrame {
    /// Echoed exchange tag.
    pub seq: u64,
    /// Echoed session id.
    pub session: SessionId,
    /// Read-lease grant: the object's write epoch sampled *before* the
    /// server performed the read. Rides the spare space in the fixed
    /// [`WIRE_HDR`] header (like `seq`/`session`/tenant), so granting
    /// leases changes no wire size. `None` for every non-read response and
    /// whenever the server has leases disabled; lease *revocation* travels
    /// through the server's write-hook broadcast rather than a frame of its
    /// own.
    pub lease: Option<u64>,
    /// The result.
    pub resp: Response,
}

impl RespFrame {
    /// Bytes on the wire — the inner response's size unchanged (the lease
    /// grant lives in the fixed header).
    pub fn wire_size(&self) -> u64 {
        self.resp.wire_size()
    }
}

/// A client → server request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Create a collection.
    MkColl(String),
    /// Remove an empty collection.
    RmColl(String),
    /// Register a new data object.
    Create(String),
    /// Open a data object, returning a descriptor.
    Open(String, OpenFlags),
    /// Close a descriptor.
    Close(u32),
    /// Read `len` bytes at `offset`.
    Read {
        /// Descriptor from [`Request::Open`].
        fd: u32,
        /// Byte offset.
        offset: u64,
        /// Bytes requested.
        len: u64,
    },
    /// Write the payload at `offset`.
    Write {
        /// Descriptor from [`Request::Open`].
        fd: u32,
        /// Byte offset.
        offset: u64,
        /// Data to write.
        payload: Payload,
    },
    /// Read many extents in one exchange (list-I/O). The response packs
    /// the extents' data back-to-back in list order, each truncated at EOF
    /// POSIX-style. The extent table travels in the payload region — 16
    /// bytes per `(offset, len)` pair on the wire — while the header stays
    /// the fixed [`WIRE_HDR`] bytes, so existing ops are framed unchanged.
    ReadList {
        /// Descriptor from [`Request::Open`].
        fd: u32,
        /// `(offset, len)` pairs, served in list order.
        extents: Vec<(u64, u64)>,
    },
    /// Write many extents in one exchange (list-I/O). `payload` packs the
    /// extents' data back-to-back in list order; its length must equal the
    /// sum of the extent lengths — the wire carries only packed payload
    /// bytes, never the holes between extents.
    WriteList {
        /// Descriptor from [`Request::Open`].
        fd: u32,
        /// `(offset, len)` pairs, applied in list order.
        extents: Vec<(u64, u64)>,
        /// The extents' data, packed back-to-back.
        payload: Payload,
    },
    /// Object metadata.
    Stat(String),
    /// Remove a data object.
    Unlink(String),
    /// Immediate children of a collection.
    List(String),
    /// Server-side Adler-32 checksum of a whole object.
    Checksum(String),
    /// Copy a data object to a federated peer server (§8: the SRB server
    /// "can be configured to run in a federated mode where one server can
    /// act as a client to other servers").
    Replicate {
        /// Logical path of the object to copy.
        path: String,
        /// Peer name registered via `SrbServer::add_peer`.
        peer: String,
    },
    /// Retire one session's fd namespace without tearing the stream down.
    /// What a session on a pool slot's shared stream ends with; one that
    /// owns its stream sends [`Request::Disconnect`].
    EndSession,
    /// Tear the connection down.
    Disconnect,
}

impl Request {
    /// Bytes this request occupies on the wire (header + inline payload).
    /// List requests carry their extent table (16 bytes per pair) and, for
    /// writes, the packed payload — holes between extents cost nothing.
    pub fn wire_size(&self) -> u64 {
        match self {
            Request::Write { payload, .. } => WIRE_HDR + payload.len(),
            Request::ReadList { extents, .. } => WIRE_HDR + 16 * extents.len() as u64,
            Request::WriteList {
                extents, payload, ..
            } => WIRE_HDR + 16 * extents.len() as u64 + payload.len(),
            _ => WIRE_HDR,
        }
    }

    /// Short stable operation name, used by the server's request trace.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::MkColl(_) => "mkcoll",
            Request::RmColl(_) => "rmcoll",
            Request::Create(_) => "create",
            Request::Open(_, _) => "open",
            Request::Close(_) => "close",
            Request::Read { .. } => "read",
            Request::Write { .. } => "write",
            Request::ReadList { .. } => "readlist",
            Request::WriteList { .. } => "writelist",
            Request::Stat(_) => "stat",
            Request::Unlink(_) => "unlink",
            Request::List(_) => "list",
            Request::Checksum(_) => "checksum",
            Request::Replicate { .. } => "replicate",
            Request::EndSession => "endsession",
            Request::Disconnect => "disconnect",
        }
    }
}

/// A server → client response.
#[derive(Clone, Debug)]
pub enum Response {
    /// Success with no body.
    Ok,
    /// A freshly opened descriptor.
    Fd(u32),
    /// Read data.
    Data(Payload),
    /// Bytes accepted by a write.
    Written(u64),
    /// `stat` result.
    Stat(ObjStat),
    /// Collection listing.
    Names(Vec<String>),
    /// Whole-object checksum.
    Checksum(u32),
    /// Operation failed.
    Error(SrbError),
}

impl Response {
    /// Bytes this response occupies on the wire.
    pub fn wire_size(&self) -> u64 {
        match self {
            Response::Data(p) => WIRE_HDR + p.len(),
            Response::Names(n) => WIRE_HDR + n.iter().map(|s| s.len() as u64 + 8).sum::<u64>(),
            _ => WIRE_HDR,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_requests_carry_payload_on_the_wire() {
        let r = Request::Write {
            fd: 1,
            offset: 0,
            payload: Payload::sized(1_000_000),
        };
        assert_eq!(r.wire_size(), WIRE_HDR + 1_000_000);
        assert_eq!(
            Request::Open("/x".into(), OpenFlags::Read).wire_size(),
            WIRE_HDR
        );
    }

    #[test]
    fn list_requests_carry_extent_table_and_packed_payload() {
        let extents = vec![(0u64, 4096u64), (16_384, 4096), (32_768, 4096)];
        let r = Request::ReadList {
            fd: 3,
            extents: extents.clone(),
        };
        // Extent table only: 16 bytes per pair, no data yet.
        assert_eq!(r.wire_size(), WIRE_HDR + 48);
        assert_eq!(r.op_name(), "readlist");
        let w = Request::WriteList {
            fd: 3,
            extents,
            payload: Payload::sized(3 * 4096),
        };
        // Packed payload only — the 12 KiB of holes between the extents
        // never touch the wire.
        assert_eq!(w.wire_size(), WIRE_HDR + 48 + 3 * 4096);
        assert_eq!(w.op_name(), "writelist");
    }

    #[test]
    fn read_responses_carry_payload_on_the_wire() {
        assert_eq!(
            Response::Data(Payload::sized(4096)).wire_size(),
            WIRE_HDR + 4096
        );
        assert_eq!(Response::Ok.wire_size(), WIRE_HDR);
        assert!(Response::Names(vec!["/a/b".into()]).wire_size() > WIRE_HDR);
    }
}
