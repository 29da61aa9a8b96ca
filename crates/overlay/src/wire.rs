//! The overlay wire codec: explicit byte-level encode/decode for every
//! frame that crosses an overlay link.
//!
//! This module defines the canonical frame format, and both drivers carry
//! it: a real daemon's datagrams are these bytes, and the simulator queues
//! the same bytes for every frame a pipe lets through and decodes them at
//! the receiving daemon (`Wire`'s
//! [`SimMessage`](son_netsim::process::SimMessage) codec hooks). A simulated
//! deployment and a real cluster are therefore byte-wire-compatible by
//! construction rather than by claim. The daemon never runs the codec
//! itself: it hands its driver a borrowed frame to encode, and a simulated
//! frame decodes by its kind ([`frame_kind`]) straight into what the daemon
//! hands on — a data frame into the packet its link protocol takes
//! ([`decode_data`]) — never into a 280-byte `Wire`. A frame costs the
//! same on both legs: the length of these bytes is what a simulated pipe
//! models bandwidth on and counts in `pipe.bytes`, and what son-node
//! counts for the datagram it sends.
//!
//! ## Frame layout
//!
//! Every frame is `[magic u8][version u8][kind u8][flags u8]`
//! `[body_len u32 LE][body…]` — an 8-byte header
//! ([`FRAME_HEADER_BYTES`]) followed by a kind-specific body:
//!
//! | kind | flags | body |
//! |------|-------|------|
//! | 1 = data | presence bits (mask/resolved/trace) | [`DataPacket`] fields |
//! | 2 = link ctl | service slot | [`LinkCtl`] (tag byte + fields) |
//! | 3 = control | control sub-kind | [`Control`] fields |
//!
//! Integers are little-endian; `f64` travels as its IEEE-754 bit pattern;
//! times are nanoseconds in `u64`. A data packet's three optional segments
//! signal presence through flag bits (the frame flags byte at top level; a
//! 1-byte flags prefix when nested inside a FEC repair), so an absent
//! segment costs nothing: a present `TraceContext` segment is 10 bytes
//! (the flagged id + hop, hop widened to `u16` on the wire) and a present
//! source-route mask segment is 32 bytes. A `Hello`/`HelloAck`/
//! `WatchReceipt` frame is 24 bytes total. A link-control frame's flags
//! byte is the service slot it addresses; a slot no service has is a
//! [`WireError::BadTag`].
//!
//! Session traffic (`FromClient`/`ToClient`) and intercepted `Raw`
//! datagrams are local IPC between colocated processes — they never cross
//! an overlay link, and the codec rejects them.

use std::cell::RefCell;

use bytes::Bytes;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::trace::TraceContext;
use son_topo::{EdgeId, EdgeMask, NodeId};

use crate::addr::{DestKey, FlowKey, GroupId, OverlayAddr, VirtualPort};
use crate::packet::{
    Adverts, Control, DataPacket, GroupUpdate, LinkAdvert, LinkCtl, Lsa, MemberInfo, MemberStatus,
    Wire,
};
use crate::service::{
    FecParams, FlowSpec, LinkService, Priority, RealtimeParams, RoutingService, SourceRoute,
    SERVICE_SLOTS,
};

/// Size of the fixed frame header: magic, version, kind, flags, body length.
pub const FRAME_HEADER_BYTES: usize = 8;

/// First byte of every frame.
pub const FRAME_MAGIC: u8 = 0xA5;

/// Current codec version; bumped on any layout change.
pub const FRAME_VERSION: u8 = 1;

const KIND_DATA: u8 = 1;
const KIND_CTL: u8 = 2;
const KIND_CONTROL: u8 = 3;

const CONTROL_HELLO: u8 = 1;
const CONTROL_HELLO_ACK: u8 = 2;
const CONTROL_LSA: u8 = 3;
const CONTROL_GROUP_UPDATE: u8 = 4;
const CONTROL_WATCH_RECEIPT: u8 = 5;
const CONTROL_JOIN: u8 = 6;
const CONTROL_JOIN_ACK: u8 = 7;
const CONTROL_LEAVE: u8 = 8;
const CONTROL_MEMBERSHIP_UPDATE: u8 = 9;

const MEMBER_UP: u8 = 0;
const MEMBER_DOWN: u8 = 1;
const MEMBER_LEFT: u8 = 2;

const CTL_RELIABLE_ACK: u8 = 0;
const CTL_RELIABLE_NACK: u8 = 1;
const CTL_RT_REQUEST: u8 = 2;
const CTL_CREDIT: u8 = 3;
const CTL_FEC_REPAIR: u8 = 4;

const DEST_UNICAST: u8 = 1;
const DEST_MULTICAST: u8 = 2;
const DEST_ANYCAST: u8 = 3;

const ROUTING_LINK_STATE: u8 = 0;
const ROUTING_SOURCE_BASED: u8 = 1;

const SR_DISJOINT: u8 = 0;
const SR_OVERLAPPING: u8 = 1;
const SR_DISSEMINATION: u8 = 2;
const SR_FLOODING: u8 = 3;
const SR_STATIC: u8 = 4;

const LINK_BEST_EFFORT: u8 = 0;
const LINK_RELIABLE: u8 = 1;
const LINK_REALTIME: u8 = 2;
const LINK_IT_PRIORITY: u8 = 3;
const LINK_IT_RELIABLE: u8 = 4;
const LINK_FIFO: u8 = 5;
const LINK_FEC: u8 = 6;

/// Bytes of an encoded [`EdgeMask`]: 256 bits as four LE `u64` words.
const MASK_WORDS: usize = 4;

/// Bytes of an encoded [`LinkAdvert`]: edge `u32`, up `u8`, two `f64`s.
const ADVERT_BYTES: usize = 21;

/// Data-frame flag bit: the source-route mask segment is present.
const DATA_FLAG_MASK: u8 = 1 << 0;
/// Data-frame flag bit: the resolved anycast destination is present.
const DATA_FLAG_RESOLVED: u8 = 1 << 1;
/// Data-frame flag bit: the trace-context segment is present.
const DATA_FLAG_TRACE: u8 = 1 << 2;

fn data_flags(d: &DataPacket) -> u8 {
    let mut flags = 0;
    if d.mask.is_some() {
        flags |= DATA_FLAG_MASK;
    }
    if d.resolved_dst.is_some() {
        flags |= DATA_FLAG_RESOLVED;
    }
    if d.trace.is_some() {
        flags |= DATA_FLAG_TRACE;
    }
    flags
}

/// What can go wrong encoding or decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before a field was complete.
    Truncated,
    /// Bytes remained after the declared body.
    Trailing,
    /// The first byte was not [`FRAME_MAGIC`].
    BadMagic(u8),
    /// The version byte was not [`FRAME_VERSION`].
    BadVersion(u8),
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A value exceeded its wire-field range (e.g. a node id above `u32`).
    TooLarge(&'static str),
    /// The value is local IPC (`FromClient`/`ToClient`/`Raw`) and never
    /// crosses an overlay link.
    LocalOnly(&'static str),
    /// A field decoded to a value no correct sender produces (a non-finite
    /// or negative latency, a loss rate outside `[0, 1]`).
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Trailing => write!(f, "trailing bytes after frame body"),
            WireError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02x}"),
            WireError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            WireError::TooLarge(what) => write!(f, "{what} exceeds wire field range"),
            WireError::LocalOnly(what) => {
                write!(f, "{what} is local IPC and never crosses a link")
            }
            WireError::BadValue(what) => write!(f, "{what} carries an impossible value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes `wire` as one complete frame appended to `buf`.
///
/// # Errors
///
/// Returns [`WireError::LocalOnly`] for session/`Raw` traffic and
/// [`WireError::TooLarge`] when a field exceeds its wire range.
pub fn encode_into(wire: &Wire, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let (kind, flags) = match wire {
        Wire::Data(d) => (KIND_DATA, data_flags(d)),
        Wire::Ctl { slot, .. } => (KIND_CTL, *slot),
        Wire::Control(c) => (
            KIND_CONTROL,
            match c {
                Control::Hello { .. } => CONTROL_HELLO,
                Control::HelloAck { .. } => CONTROL_HELLO_ACK,
                Control::Lsa(_) => CONTROL_LSA,
                Control::GroupUpdate(_) => CONTROL_GROUP_UPDATE,
                Control::WatchReceipt { .. } => CONTROL_WATCH_RECEIPT,
                Control::Join { .. } => CONTROL_JOIN,
                Control::JoinAck { .. } => CONTROL_JOIN_ACK,
                Control::Leave { .. } => CONTROL_LEAVE,
                Control::MembershipUpdate { .. } => CONTROL_MEMBERSHIP_UPDATE,
            },
        ),
        Wire::FromClient(_) => return Err(WireError::LocalOnly("FromClient")),
        Wire::ToClient(_) => return Err(WireError::LocalOnly("ToClient")),
        Wire::Raw { .. } => return Err(WireError::LocalOnly("Raw")),
    };
    buf.push(FRAME_MAGIC);
    buf.push(FRAME_VERSION);
    buf.push(kind);
    buf.push(flags);
    let len_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    let body_start = buf.len();
    match wire {
        Wire::Data(d) => put_data(buf, d)?,
        Wire::Ctl { ctl, .. } => put_ctl(buf, ctl)?,
        Wire::Control(c) => put_control(buf, c)?,
        _ => unreachable!("local-only wires rejected above"),
    }
    let body_len =
        u32::try_from(buf.len() - body_start).map_err(|_| WireError::TooLarge("frame body"))?;
    buf[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
    Ok(())
}

/// Encodes `wire` as one complete frame.
///
/// # Errors
///
/// See [`encode_into`].
pub fn encode(wire: &Wire) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(64);
    encode_into(wire, &mut buf)?;
    Ok(buf)
}

/// Decodes one complete frame; the slice must hold exactly one frame.
///
/// # Errors
///
/// Returns a [`WireError`] on bad magic/version, unknown tags, truncation,
/// or trailing bytes.
#[inline]
pub fn decode(frame: &[u8]) -> Result<Wire, WireError> {
    decode_reusing(frame, None)
}

/// [`decode`] with an allocation hint: when the frame is an LSA whose
/// adverts decode to exactly `sender` (same length, every field bit for
/// bit), the result holds a clone of `sender` instead of a fresh
/// allocation. The hint is never a value: the frame is parsed and checked
/// in full either way, and the result equals what [`decode`] returns on the
/// same bytes, errors included.
///
/// # Errors
///
/// See [`decode`].
#[inline]
pub fn decode_reusing(frame: &[u8], sender: Option<&Adverts>) -> Result<Wire, WireError> {
    let (mut r, kind, flags) = open_frame(frame)?;
    let wire = match kind {
        KIND_DATA => get_data(&mut r, flags).map(Wire::Data),
        KIND_CTL => ctl_slot(flags).and_then(|slot| {
            let ctl = get_ctl(&mut r)?;
            Ok(Wire::Ctl { slot, ctl })
        }),
        KIND_CONTROL => get_control(&mut r, flags, sender).map(Wire::Control),
        tag => Err(WireError::BadTag { what: "kind", tag }),
    };
    match wire {
        Ok(_) if r.remaining() != 0 => Err(WireError::Trailing),
        checked => checked,
    }
}

/// The three kinds of link frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A [`DataPacket`]: [`decode_data`].
    Data,
    /// A [`LinkCtl`] for one service slot: [`decode_ctl`].
    Ctl,
    /// A [`Control`] frame: [`decode_control`].
    Control,
}

/// The kind `frame`'s header names, if any. Nothing else is checked: the
/// kind's decoder does that.
#[inline]
#[must_use]
pub fn frame_kind(frame: &[u8]) -> Option<FrameKind> {
    match frame.get(2) {
        Some(&KIND_DATA) => Some(FrameKind::Data),
        Some(&KIND_CTL) => Some(FrameKind::Ctl),
        Some(&KIND_CONTROL) => Some(FrameKind::Control),
        _ => None,
    }
}

/// Decodes a data frame to its packet alone: `decode(frame)` is
/// `Ok(Wire::Data(p))` exactly when this is `Ok(p)`, and a frame of another
/// kind is a [`WireError::BadTag`]. A receiver that handles the kinds apart
/// ([`frame_kind`]) builds the packet where its link protocol takes it,
/// without a `Wire` around it. (Spelled out rather than through
/// `decode_kind`: this way the packet is copied once fewer per hop, as
/// `scripts/copy_census.sh --sites` counts.)
///
/// # Errors
///
/// See [`decode`].
#[inline(always)]
pub fn decode_data(frame: &[u8]) -> Result<DataPacket, WireError> {
    let (mut r, kind, flags) = open_frame(frame)?;
    if kind != KIND_DATA {
        return Err(WireError::BadTag {
            what: "kind",
            tag: kind,
        });
    }
    let data = get_data(&mut r, flags)?;
    if r.remaining() != 0 {
        return Err(WireError::Trailing);
    }
    Ok(data)
}

/// [`decode_data`] for a link-control frame: its service slot and control.
///
/// # Errors
///
/// See [`decode`].
#[inline]
pub fn decode_ctl(frame: &[u8]) -> Result<(u8, LinkCtl), WireError> {
    decode_kind(frame, KIND_CTL, |r, flags| {
        Ok((ctl_slot(flags)?, get_ctl(r)?))
    })
}

/// A link-control frame's service slot, its header's flags byte: one of
/// the [`SERVICE_SLOTS`] a link multiplexes, or a [`WireError::BadTag`].
#[inline]
fn ctl_slot(flags: u8) -> Result<u8, WireError> {
    if usize::from(flags) < SERVICE_SLOTS {
        Ok(flags)
    } else {
        Err(WireError::BadTag {
            what: "ctl slot",
            tag: flags,
        })
    }
}

/// [`decode_data`] for a control frame, with [`decode_reusing`]'s hint.
///
/// # Errors
///
/// See [`decode`].
#[inline]
pub fn decode_control(frame: &[u8], sender: Option<&Adverts>) -> Result<Control, WireError> {
    decode_kind(frame, KIND_CONTROL, |r, sub| get_control(r, sub, sender))
}

/// One frame of kind `want`, its body read by `body` (which gets the
/// header's flags), checked as [`decode`] checks it.
#[inline(always)]
fn decode_kind<T>(
    frame: &[u8],
    want: u8,
    body: impl FnOnce(&mut FrameReader<'_>, u8) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let (mut r, kind, flags) = open_frame(frame)?;
    if kind != want {
        return Err(WireError::BadTag {
            what: "kind",
            tag: kind,
        });
    }
    let value = body(&mut r, flags);
    if value.is_ok() && r.remaining() != 0 {
        return Err(WireError::Trailing);
    }
    value
}

/// Checks a frame's header and returns a reader over exactly its body,
/// with the header's kind and flags.
#[inline(always)]
fn open_frame(frame: &[u8]) -> Result<(FrameReader<'_>, u8, u8), WireError> {
    let mut r = FrameReader::new(frame);
    let magic = r.u8()?;
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != FRAME_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    let flags = r.u8()?;
    let body_len = r.u32()? as usize;
    if r.remaining() != body_len {
        return Err(if r.remaining() < body_len {
            WireError::Truncated
        } else {
            WireError::Trailing
        });
    }
    Ok((r, kind, flags))
}

thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The per-thread scratch buffer, checked out; goes back when dropped.
struct Scratch(Vec<u8>);

impl Drop for Scratch {
    fn drop(&mut self) {
        drop(SCRATCH.replace(std::mem::take(&mut self.0)));
    }
}

/// Round-trips a link frame through the codec (encode, then decode the
/// bytes), using a per-thread scratch buffer: the value a neighbor would
/// decode off the link, with an LSA's adverts shared with the sender's
/// ([`decode_reusing`]). Neither driver calls it — the simulator queues a
/// frame's bytes and decodes them at the receiver, a real daemon sends
/// them — so it serves tests and the codec micro-benchmark, which price
/// one hop's codec work in one call.
///
/// # Errors
///
/// Propagates any [`WireError`]; link traffic round-trips losslessly, so an
/// error here means a local-only wire reached the link path.
#[inline]
pub fn recode(wire: &Wire) -> Result<Wire, WireError> {
    // The buffer is checked out, not borrowed through a closure, and
    // `decode` is the tail call: the decoded frame is built where the
    // caller wants it instead of being handed back through each wrapper
    // around it, one 280-byte move apiece.
    let mut buf = Scratch(SCRATCH.take());
    buf.0.clear();
    encode_into(wire, &mut buf.0)?;
    let sender = match wire {
        Wire::Control(Control::Lsa(lsa)) => Some(&lsa.links),
        _ => None,
    };
    decode_reusing(&buf.0, sender)
}

// ---------------------------------------------------------------- writers

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_node(buf: &mut Vec<u8>, node: NodeId) -> Result<(), WireError> {
    put_u32(
        buf,
        u32::try_from(node.0).map_err(|_| WireError::TooLarge("node id"))?,
    );
    Ok(())
}

fn put_addr(buf: &mut Vec<u8>, addr: OverlayAddr) -> Result<(), WireError> {
    put_node(buf, addr.node)?;
    put_u16(buf, addr.port.0);
    Ok(())
}

fn put_flow_key(buf: &mut Vec<u8>, flow: &FlowKey) -> Result<(), WireError> {
    put_addr(buf, flow.src)?;
    match flow.dst {
        DestKey::Unicast(a) => {
            buf.push(DEST_UNICAST);
            put_addr(buf, a)?;
        }
        DestKey::Multicast(g) => {
            buf.push(DEST_MULTICAST);
            put_u32(buf, g.0);
        }
        DestKey::Anycast(g) => {
            buf.push(DEST_ANYCAST);
            put_u32(buf, g.0);
        }
    }
    Ok(())
}

fn put_mask(buf: &mut Vec<u8>, mask: &EdgeMask) {
    for w in mask.words() {
        put_u64(buf, w);
    }
}

fn put_spec(buf: &mut Vec<u8>, spec: &FlowSpec) -> Result<(), WireError> {
    match spec.routing {
        RoutingService::LinkState => buf.push(ROUTING_LINK_STATE),
        RoutingService::SourceBased(sr) => {
            buf.push(ROUTING_SOURCE_BASED);
            match sr {
                SourceRoute::DisjointPaths(k) => {
                    buf.push(SR_DISJOINT);
                    buf.push(k);
                }
                SourceRoute::OverlappingPaths(k) => {
                    buf.push(SR_OVERLAPPING);
                    buf.push(k);
                }
                SourceRoute::DisseminationGraph => buf.push(SR_DISSEMINATION),
                SourceRoute::ConstrainedFlooding => buf.push(SR_FLOODING),
                SourceRoute::Static(mask) => {
                    buf.push(SR_STATIC);
                    put_mask(buf, &mask);
                }
            }
        }
    }
    match spec.link {
        LinkService::BestEffort => buf.push(LINK_BEST_EFFORT),
        LinkService::Reliable => buf.push(LINK_RELIABLE),
        LinkService::Realtime(p) => {
            buf.push(LINK_REALTIME);
            buf.push(p.n_requests);
            buf.push(p.m_retransmissions);
            put_u64(buf, p.budget.as_nanos());
        }
        LinkService::ItPriority => buf.push(LINK_IT_PRIORITY),
        LinkService::ItReliable => buf.push(LINK_IT_RELIABLE),
        LinkService::Fifo => buf.push(LINK_FIFO),
        LinkService::Fec(p) => {
            buf.push(LINK_FEC);
            buf.push(p.k);
            buf.push(p.r);
        }
    }
    buf.push(u8::from(spec.ordered));
    match spec.deadline {
        None => buf.push(0),
        Some(d) => {
            buf.push(1);
            put_u64(buf, d.as_nanos());
        }
    }
    buf.push(spec.priority.0);
    Ok(())
}

/// Writes a data-packet body. Presence of the optional segments is carried
/// by flag bits *outside* the body ([`data_flags`]): the frame flags byte
/// for a top-level data frame, a 1-byte prefix when nested in a FEC repair.
fn put_data(buf: &mut Vec<u8>, d: &DataPacket) -> Result<(), WireError> {
    put_flow_key(buf, &d.flow)?;
    put_u64(buf, d.flow_seq);
    put_node(buf, d.origin)?;
    put_spec(buf, &d.spec)?;
    if let Some(m) = &d.mask {
        put_mask(buf, m);
    }
    if let Some(n) = d.resolved_dst {
        put_node(buf, n)?;
    }
    put_u64(buf, d.link_seq);
    put_u64(buf, d.created_at.as_nanos());
    put_u32(
        buf,
        u32::try_from(d.size).map_err(|_| WireError::TooLarge("payload size"))?,
    );
    put_u32(
        buf,
        u32::try_from(d.payload.len()).map_err(|_| WireError::TooLarge("payload"))?,
    );
    buf.extend_from_slice(&d.payload);
    buf.push(d.ttl);
    put_u64(buf, d.auth_tag);
    // A present trace segment is exactly TRACE_CONTEXT_BYTES = 10 (the
    // flagged id + hop); hop is widened to u16 on the wire.
    if let Some(t) = d.trace {
        put_u64(buf, t.id);
        put_u16(buf, u16::from(t.hop));
    }
    Ok(())
}

fn put_seqs(buf: &mut Vec<u8>, seqs: &[u64]) -> Result<(), WireError> {
    put_u32(
        buf,
        u32::try_from(seqs.len()).map_err(|_| WireError::TooLarge("sequence list"))?,
    );
    for &s in seqs {
        put_u64(buf, s);
    }
    Ok(())
}

fn put_ctl(buf: &mut Vec<u8>, ctl: &LinkCtl) -> Result<(), WireError> {
    match ctl {
        LinkCtl::ReliableAck { cum, selective } => {
            buf.push(CTL_RELIABLE_ACK);
            put_u64(buf, *cum);
            put_seqs(buf, selective)?;
        }
        LinkCtl::ReliableNack { missing } => {
            buf.push(CTL_RELIABLE_NACK);
            put_seqs(buf, missing)?;
        }
        LinkCtl::RtRequest { seqs, strike } => {
            buf.push(CTL_RT_REQUEST);
            buf.push(*strike);
            put_seqs(buf, seqs)?;
        }
        LinkCtl::Credit { flow, granted_upto } => {
            buf.push(CTL_CREDIT);
            put_flow_key(buf, flow)?;
            put_u64(buf, *granted_upto);
        }
        LinkCtl::FecRepair {
            block_start,
            index,
            covered,
        } => {
            buf.push(CTL_FEC_REPAIR);
            put_u64(buf, *block_start);
            buf.push(*index);
            put_u16(
                buf,
                u16::try_from(covered.len()).map_err(|_| WireError::TooLarge("covered block"))?,
            );
            for p in covered {
                buf.push(data_flags(p));
                put_data(buf, p)?;
            }
        }
    }
    Ok(())
}

fn put_control(buf: &mut Vec<u8>, c: &Control) -> Result<(), WireError> {
    match c {
        Control::Hello { seq, sent_at } => {
            put_u64(buf, *seq);
            put_u64(buf, sent_at.as_nanos());
        }
        Control::HelloAck { seq, echo_sent_at } => {
            put_u64(buf, *seq);
            put_u64(buf, echo_sent_at.as_nanos());
        }
        Control::Lsa(lsa) => {
            put_node(buf, lsa.origin)?;
            put_u64(buf, lsa.seq);
            put_u16(
                buf,
                u16::try_from(lsa.links.len()).map_err(|_| WireError::TooLarge("LSA links"))?,
            );
            for l in lsa.links.iter() {
                put_u32(
                    buf,
                    u32::try_from(l.edge.0).map_err(|_| WireError::TooLarge("edge id"))?,
                );
                buf.push(u8::from(l.up));
                put_f64(buf, l.latency_ms);
                put_f64(buf, l.loss);
            }
        }
        Control::GroupUpdate(gu) => {
            put_node(buf, gu.origin)?;
            put_u64(buf, gu.seq);
            put_u16(
                buf,
                u16::try_from(gu.groups.len()).map_err(|_| WireError::TooLarge("groups"))?,
            );
            for g in &gu.groups {
                put_u32(buf, g.0);
            }
        }
        Control::WatchReceipt {
            received,
            progressed,
        } => {
            put_u64(buf, *received);
            put_u64(buf, *progressed);
        }
        Control::Join { node, incarnation } | Control::Leave { node, incarnation } => {
            put_node(buf, *node)?;
            put_u64(buf, *incarnation);
        }
        Control::JoinAck { members } => {
            put_members(buf, members)?;
        }
        Control::MembershipUpdate {
            origin,
            seq,
            members,
        } => {
            put_node(buf, *origin)?;
            put_u64(buf, *seq);
            put_members(buf, members)?;
        }
    }
    Ok(())
}

fn put_members(buf: &mut Vec<u8>, members: &[MemberInfo]) -> Result<(), WireError> {
    put_u16(
        buf,
        u16::try_from(members.len()).map_err(|_| WireError::TooLarge("members"))?,
    );
    for m in members {
        put_node(buf, m.node)?;
        put_u64(buf, m.incarnation);
        buf.push(match m.status {
            MemberStatus::Up => MEMBER_UP,
            MemberStatus::Down => MEMBER_DOWN,
            MemberStatus::Left => MEMBER_LEFT,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------- readers

struct FrameReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> FrameReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what, tag }),
        }
    }
}

fn get_node(r: &mut FrameReader<'_>) -> Result<NodeId, WireError> {
    Ok(NodeId(r.u32()? as usize))
}

fn get_addr(r: &mut FrameReader<'_>) -> Result<OverlayAddr, WireError> {
    let node = get_node(r)?;
    let port = r.u16()?;
    Ok(OverlayAddr {
        node,
        port: VirtualPort(port),
    })
}

fn get_flow_key(r: &mut FrameReader<'_>) -> Result<FlowKey, WireError> {
    let src = get_addr(r)?;
    let dst = match r.u8()? {
        DEST_UNICAST => DestKey::Unicast(get_addr(r)?),
        DEST_MULTICAST => DestKey::Multicast(GroupId(r.u32()?)),
        DEST_ANYCAST => DestKey::Anycast(GroupId(r.u32()?)),
        tag => return Err(WireError::BadTag { what: "dest", tag }),
    };
    Ok(FlowKey { src, dst })
}

fn get_mask(r: &mut FrameReader<'_>) -> Result<EdgeMask, WireError> {
    let mut words = [0u64; MASK_WORDS];
    for w in &mut words {
        *w = r.u64()?;
    }
    Ok(EdgeMask::from_words(words))
}

fn get_spec(r: &mut FrameReader<'_>) -> Result<FlowSpec, WireError> {
    let routing = match r.u8()? {
        ROUTING_LINK_STATE => RoutingService::LinkState,
        ROUTING_SOURCE_BASED => RoutingService::SourceBased(match r.u8()? {
            SR_DISJOINT => SourceRoute::DisjointPaths(r.u8()?),
            SR_OVERLAPPING => SourceRoute::OverlappingPaths(r.u8()?),
            SR_DISSEMINATION => SourceRoute::DisseminationGraph,
            SR_FLOODING => SourceRoute::ConstrainedFlooding,
            SR_STATIC => SourceRoute::Static(get_mask(r)?),
            tag => {
                return Err(WireError::BadTag {
                    what: "source route",
                    tag,
                })
            }
        }),
        tag => {
            return Err(WireError::BadTag {
                what: "routing",
                tag,
            })
        }
    };
    let link = match r.u8()? {
        LINK_BEST_EFFORT => LinkService::BestEffort,
        LINK_RELIABLE => LinkService::Reliable,
        LINK_REALTIME => {
            let n_requests = r.u8()?;
            let m_retransmissions = r.u8()?;
            let budget = SimDuration::from_nanos(r.u64()?);
            LinkService::Realtime(RealtimeParams {
                n_requests,
                m_retransmissions,
                budget,
            })
        }
        LINK_IT_PRIORITY => LinkService::ItPriority,
        LINK_IT_RELIABLE => LinkService::ItReliable,
        LINK_FIFO => LinkService::Fifo,
        LINK_FEC => {
            let k = r.u8()?;
            let rr = r.u8()?;
            LinkService::Fec(FecParams { k, r: rr })
        }
        tag => {
            return Err(WireError::BadTag {
                what: "link service",
                tag,
            })
        }
    };
    let ordered = r.bool("ordered")?;
    let deadline = if r.bool("deadline presence")? {
        Some(SimDuration::from_nanos(r.u64()?))
    } else {
        None
    };
    let priority = Priority(r.u8()?);
    Ok(FlowSpec {
        routing,
        link,
        ordered,
        deadline,
        priority,
    })
}

#[inline(always)]
fn get_data(r: &mut FrameReader<'_>, flags: u8) -> Result<DataPacket, WireError> {
    let flow = get_flow_key(r)?;
    let flow_seq = r.u64()?;
    let origin = get_node(r)?;
    let spec = get_spec(r)?;
    let mask = if flags & DATA_FLAG_MASK != 0 {
        Some(get_mask(r)?)
    } else {
        None
    };
    let resolved_dst = if flags & DATA_FLAG_RESOLVED != 0 {
        Some(get_node(r)?)
    } else {
        None
    };
    let link_seq = r.u64()?;
    let created_at = SimTime::from_nanos(r.u64()?);
    let size = r.u32()? as usize;
    let payload_len = r.u32()? as usize;
    let payload = Bytes::copy_from_slice(r.take(payload_len)?);
    let ttl = r.u8()?;
    let auth_tag = r.u64()?;
    let trace = if flags & DATA_FLAG_TRACE != 0 {
        let id = r.u64()?;
        let hop = u8::try_from(r.u16()?).map_err(|_| WireError::TooLarge("trace hop"))?;
        Some(TraceContext { id, hop })
    } else {
        None
    };
    Ok(DataPacket {
        flow,
        flow_seq,
        origin,
        spec,
        mask,
        resolved_dst,
        link_seq,
        created_at,
        size,
        payload,
        ttl,
        auth_tag,
        trace,
    })
}

fn get_seqs(r: &mut FrameReader<'_>) -> Result<Vec<u64>, WireError> {
    let n = r.u32()? as usize;
    // Guard against a hostile length prefix before allocating.
    if n * 8 > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut seqs = Vec::with_capacity(n);
    for _ in 0..n {
        seqs.push(r.u64()?);
    }
    Ok(seqs)
}

fn get_ctl(r: &mut FrameReader<'_>) -> Result<LinkCtl, WireError> {
    Ok(match r.u8()? {
        CTL_RELIABLE_ACK => {
            let cum = r.u64()?;
            let selective = get_seqs(r)?;
            LinkCtl::ReliableAck { cum, selective }
        }
        CTL_RELIABLE_NACK => LinkCtl::ReliableNack {
            missing: get_seqs(r)?,
        },
        CTL_RT_REQUEST => {
            let strike = r.u8()?;
            let seqs = get_seqs(r)?;
            LinkCtl::RtRequest { seqs, strike }
        }
        CTL_CREDIT => {
            let flow = get_flow_key(r)?;
            let granted_upto = r.u64()?;
            LinkCtl::Credit { flow, granted_upto }
        }
        CTL_FEC_REPAIR => {
            let block_start = r.u64()?;
            let index = r.u8()?;
            let n = r.u16()? as usize;
            let mut covered = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                let flags = r.u8()?;
                covered.push(get_data(r, flags)?);
            }
            LinkCtl::FecRepair {
                block_start,
                index,
                covered,
            }
        }
        tag => {
            return Err(WireError::BadTag {
                what: "link ctl",
                tag,
            })
        }
    })
}

/// One advert from its [`ADVERT_BYTES`] bytes.
fn get_advert(bytes: &[u8]) -> Result<LinkAdvert, WireError> {
    let mut r = FrameReader::new(bytes);
    let advert = LinkAdvert {
        edge: EdgeId(r.u32()? as usize),
        up: r.bool("link up")?,
        latency_ms: r.f64()?,
        loss: r.f64()?,
    };
    if !advert.is_well_formed() {
        return Err(WireError::BadValue("link advert"));
    }
    Ok(advert)
}

/// An LSA's counted advert list. Every advert is parsed and checked before
/// anything is allocated; then the result is `sender`'s allocation if the
/// adverts are bit for bit what it holds, and one exact-size allocation
/// otherwise.
fn get_adverts(r: &mut FrameReader<'_>, sender: Option<&Adverts>) -> Result<Adverts, WireError> {
    fn same_bits(a: &LinkAdvert, b: &LinkAdvert) -> bool {
        a.edge == b.edge
            && a.up == b.up
            && a.latency_ms.to_bits() == b.latency_ms.to_bits()
            && a.loss.to_bits() == b.loss.to_bits()
    }
    let n = r.u16()? as usize;
    let body = r.take(n * ADVERT_BYTES)?;
    let adverts = || body.chunks_exact(ADVERT_BYTES).map(get_advert);
    let mut same = sender.filter(|s| s.len() == n);
    for (i, advert) in adverts().enumerate() {
        let advert = advert?;
        if same.is_some_and(|s| !same_bits(&s[i], &advert)) {
            same = None;
        }
    }
    Ok(match same {
        Some(s) => s.clone(),
        // An exact-size iterator: the slice is allocated once, in place.
        None => adverts()
            .map(|advert| advert.expect("checked above"))
            .collect(),
    })
}

fn get_control(
    r: &mut FrameReader<'_>,
    sub: u8,
    sender: Option<&Adverts>,
) -> Result<Control, WireError> {
    Ok(match sub {
        CONTROL_HELLO => Control::Hello {
            seq: r.u64()?,
            sent_at: SimTime::from_nanos(r.u64()?),
        },
        CONTROL_HELLO_ACK => Control::HelloAck {
            seq: r.u64()?,
            echo_sent_at: SimTime::from_nanos(r.u64()?),
        },
        CONTROL_LSA => {
            let origin = get_node(r)?;
            let seq = r.u64()?;
            let links = get_adverts(r, sender)?;
            Control::Lsa(Lsa { origin, seq, links })
        }
        CONTROL_GROUP_UPDATE => {
            let origin = get_node(r)?;
            let seq = r.u64()?;
            let n = r.u16()? as usize;
            let mut groups = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                groups.push(GroupId(r.u32()?));
            }
            Control::GroupUpdate(GroupUpdate {
                origin,
                seq,
                groups,
            })
        }
        CONTROL_WATCH_RECEIPT => Control::WatchReceipt {
            received: r.u64()?,
            progressed: r.u64()?,
        },
        CONTROL_JOIN => Control::Join {
            node: get_node(r)?,
            incarnation: r.u64()?,
        },
        CONTROL_JOIN_ACK => Control::JoinAck {
            members: get_members(r)?,
        },
        CONTROL_LEAVE => Control::Leave {
            node: get_node(r)?,
            incarnation: r.u64()?,
        },
        CONTROL_MEMBERSHIP_UPDATE => {
            let origin = get_node(r)?;
            let seq = r.u64()?;
            let members = get_members(r)?;
            Control::MembershipUpdate {
                origin,
                seq,
                members,
            }
        }
        tag => {
            return Err(WireError::BadTag {
                what: "control",
                tag,
            })
        }
    })
}

fn get_members(r: &mut FrameReader<'_>) -> Result<Vec<MemberInfo>, WireError> {
    let n = r.u16()? as usize;
    let mut members = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        let node = get_node(r)?;
        let incarnation = r.u64()?;
        let status = match r.u8()? {
            MEMBER_UP => MemberStatus::Up,
            MEMBER_DOWN => MemberStatus::Down,
            MEMBER_LEFT => MemberStatus::Left,
            tag => {
                return Err(WireError::BadTag {
                    what: "member status",
                    tag,
                })
            }
        };
        members.push(MemberInfo {
            node,
            incarnation,
            status,
        });
    }
    Ok(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_frame_is_24_bytes() {
        let bytes = encode(&Wire::Control(Control::Hello {
            seq: 9,
            sent_at: SimTime::from_millis(3),
        }))
        .unwrap();
        assert_eq!(bytes.len(), 24);
    }

    #[test]
    fn rejects_local_only_wires() {
        let err = encode(&Wire::FromClient(crate::packet::ClientOp::Disconnect)).unwrap_err();
        assert_eq!(err, WireError::LocalOnly("FromClient"));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode(&Wire::Control(Control::WatchReceipt {
            received: 1,
            progressed: 1,
        }))
        .unwrap();
        bytes[0] = 0x00;
        assert!(matches!(decode(&bytes), Err(WireError::BadMagic(0))));
        bytes[0] = FRAME_MAGIC;
        bytes[1] = 99;
        assert!(matches!(decode(&bytes), Err(WireError::BadVersion(99))));
    }

    fn lsa_frame(latency_ms: f64, loss: f64) -> Vec<u8> {
        encode(&Wire::Control(Control::Lsa(Lsa {
            origin: NodeId(3),
            seq: 7,
            links: Adverts::from([LinkAdvert {
                edge: EdgeId(1),
                up: true,
                latency_ms,
                loss,
            }]),
        })))
        .unwrap()
    }

    /// A forged measurement would reach every route weight computed from
    /// the LSDB (`+inf` trips the graph's finite-weight assertion at the
    /// next rebuild); the decoder is where outside bytes enter.
    #[test]
    fn rejects_link_adverts_no_correct_node_sends() {
        for (latency_ms, loss) in [
            (f64::INFINITY, 0.0),
            (f64::NAN, 0.0),
            (-1.0, 0.0),
            (f64::MAX, 0.0),
            (10.0, f64::NAN),
            (10.0, -0.02),
            (10.0, 1.5),
        ] {
            assert_eq!(
                decode(&lsa_frame(latency_ms, loss)),
                Err(WireError::BadValue("link advert")),
                "latency {latency_ms} loss {loss}"
            );
        }
        // What `build_own_lsa` emits — quantized, so a link faster than the
        // 0.25 ms quantum advertises exactly zero — still decodes.
        for (latency_ms, loss) in [(0.0, 0.0), (12.25, 0.02), (0.25, 1.0)] {
            assert!(decode(&lsa_frame(latency_ms, loss)).is_ok());
        }
    }

    #[test]
    fn rejects_unknown_member_status() {
        let w = Wire::Control(Control::JoinAck {
            members: vec![MemberInfo {
                node: NodeId(1),
                incarnation: 0,
                status: MemberStatus::Up,
            }],
        });
        let mut bytes = encode(&w).unwrap();
        *bytes.last_mut().unwrap() = 9;
        assert_eq!(
            decode(&bytes),
            Err(WireError::BadTag {
                what: "member status",
                tag: 9
            })
        );
    }

    /// A link-control frame names one of the seven service slots; any
    /// other slot byte is refused by both decoders, before the body.
    #[test]
    fn rejects_a_ctl_slot_no_service_has() {
        let ctl = LinkCtl::ReliableNack { missing: vec![3] };
        for slot in 0..=u8::MAX {
            let bytes = encode(&Wire::Ctl {
                slot,
                ctl: ctl.clone(),
            })
            .unwrap();
            if usize::from(slot) < SERVICE_SLOTS {
                assert_eq!(decode_ctl(&bytes), Ok((slot, ctl.clone())));
                assert!(decode(&bytes).is_ok());
            } else {
                let refused = WireError::BadTag {
                    what: "ctl slot",
                    tag: slot,
                };
                assert_eq!(decode_ctl(&bytes), Err(refused.clone()));
                assert_eq!(decode(&bytes), Err(refused));
            }
        }
    }

    #[test]
    fn rejects_truncation_and_trailing() {
        let bytes = encode(&Wire::Control(Control::Hello {
            seq: 1,
            sent_at: SimTime::ZERO,
        }))
        .unwrap();
        assert_eq!(decode(&bytes[..bytes.len() - 1]), Err(WireError::Truncated));
        let mut long = bytes;
        long.push(0);
        assert_eq!(decode(&long), Err(WireError::Trailing));
    }
}
