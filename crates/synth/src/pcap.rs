//! Classic libpcap file I/O for synthetic traces.
//!
//! Lets generated traffic round-trip through the standard capture format:
//! a [`Trace`] written here opens in tcpdump/Wireshark, and captures of
//! compatible traffic (Ethernet II + IPv4 + TCP/UDP) can be loaded back
//! into the pipeline. This exercises the full `iguard-flow` wire encoder —
//! every written packet carries valid IPv4/TCP/UDP checksums.
//!
//! Format: the classic (non-ng) pcap container — a 24-byte global header
//! (magic `0xA1B2C3D4`, microsecond timestamps) followed by 16-byte
//! per-record headers. Ground-truth labels are *not* representable in
//! pcap; [`read_trace`] returns all-benign labels and callers re-label.

use std::io::{self, Read, Write};

use iguard_flow::packet::Packet;

use crate::trace::Trace;

/// Classic pcap magic, microsecond resolution, little-endian.
const MAGIC_US_LE: u32 = 0xA1B2_C3D4;
/// LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u32 = 1;

/// Errors from pcap parsing.
#[derive(Debug)]
pub enum PcapError {
    Io(io::Error),
    /// Not a classic little-endian microsecond pcap.
    BadMagic(u32),
    /// Link type other than Ethernet.
    UnsupportedLinkType(u32),
    /// A record header promised more bytes than the file holds.
    Truncated,
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "i/o error: {e}"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic {m:#010x}"),
            PcapError::UnsupportedLinkType(l) => write!(f, "unsupported link type {l}"),
            PcapError::Truncated => write!(f, "truncated pcap record"),
        }
    }
}

impl std::error::Error for PcapError {}

/// Writes a trace as a classic pcap stream. Every packet is serialised via
/// [`Packet::to_bytes`] (valid headers and checksums).
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    // Global header.
    w.write_all(&MAGIC_US_LE.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&65_535u32.to_le_bytes())?; // snaplen
    w.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
    for p in &trace.packets {
        let bytes = p.to_bytes();
        let ts_sec = (p.ts_ns / 1_000_000_000) as u32;
        let ts_usec = ((p.ts_ns % 1_000_000_000) / 1_000) as u32;
        w.write_all(&ts_sec.to_le_bytes())?;
        w.write_all(&ts_usec.to_le_bytes())?;
        w.write_all(&(bytes.len() as u32).to_le_bytes())?; // incl_len
        w.write_all(&(bytes.len() as u32).to_le_bytes())?; // orig_len
        w.write_all(&bytes)?;
    }
    Ok(())
}

/// Reads a classic pcap stream back into a trace. Records that do not
/// parse as Ethernet II + IPv4 (+TCP/UDP/other) are skipped, mirroring a
/// data-plane parser dropping non-IP traffic. All labels are `false`.
pub fn read_trace<R: Read>(mut r: R) -> Result<Trace, PcapError> {
    let mut gh = [0u8; 24];
    r.read_exact(&mut gh)?;
    let magic = u32::from_le_bytes([gh[0], gh[1], gh[2], gh[3]]);
    if magic != MAGIC_US_LE {
        return Err(PcapError::BadMagic(magic));
    }
    let linktype = u32::from_le_bytes([gh[20], gh[21], gh[22], gh[23]]);
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::UnsupportedLinkType(linktype));
    }
    let mut trace = Trace::new();
    loop {
        let mut rh = [0u8; 16];
        match r.read_exact(&mut rh) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let ts_sec = u32::from_le_bytes([rh[0], rh[1], rh[2], rh[3]]) as u64;
        let ts_usec = u32::from_le_bytes([rh[4], rh[5], rh[6], rh[7]]) as u64;
        let incl = u32::from_le_bytes([rh[8], rh[9], rh[10], rh[11]]) as usize;
        let mut data = vec![0u8; incl];
        r.read_exact(&mut data).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                PcapError::Truncated
            } else {
                PcapError::Io(e)
            }
        })?;
        let ts_ns = ts_sec * 1_000_000_000 + ts_usec * 1_000;
        if let Ok(p) = Packet::from_bytes(ts_ns, &data) {
            trace.push(p, false);
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::Attack;
    use crate::benign::benign_trace;
    use iguard_runtime::rng::Rng;

    #[test]
    fn roundtrip_preserves_packets() {
        let mut rng = Rng::seed_from_u64(1);
        let trace = benign_trace(30, 2.0, &mut rng);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.packets.iter().zip(&back.packets) {
            // Microsecond timestamp resolution truncates nanoseconds.
            assert_eq!(a.ts_ns / 1_000, b.ts_ns / 1_000);
            assert_eq!(a.five, b.five);
            assert_eq!(a.wire_len, b.wire_len);
            assert_eq!(a.ttl, b.ttl);
            assert_eq!(a.flags, b.flags);
        }
    }

    /// Records are read back in file order, so a capture whose last
    /// record is older than its first yields an unsorted trace; its span
    /// must still be newest minus oldest, not a `u64` underflow.
    #[test]
    fn reversed_trace_roundtrip_keeps_its_span() {
        let mut rng = Rng::seed_from_u64(3);
        let trace = benign_trace(30, 2.0, &mut rng);
        let mut reversed = trace.clone();
        reversed.packets.reverse();
        reversed.labels.reverse();
        let read_back = |t: &Trace| {
            let mut buf = Vec::new();
            write_trace(t, &mut buf).unwrap();
            read_trace(&buf[..]).unwrap()
        };
        let (fwd, back) = (read_back(&trace), read_back(&reversed));
        assert!(back.packets[0].ts_ns > back.packets[back.len() - 1].ts_ns);
        assert!(fwd.duration_secs() > 1.0, "span {}", fwd.duration_secs());
        assert_eq!(back.duration_secs(), fwd.duration_secs());
    }

    #[test]
    fn attack_traces_roundtrip_too() {
        let mut rng = Rng::seed_from_u64(2);
        let trace = Attack::TcpDdos.trace(10, 1.0, &mut rng);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.len(), trace.len());
        assert!(back.packets.iter().all(|p| p.flags.syn));
    }

    #[test]
    fn global_header_is_classic_pcap() {
        let trace = Trace::new();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        assert_eq!(buf.len(), 24);
        assert_eq!(&buf[0..4], &0xA1B2_C3D4u32.to_le_bytes());
        assert_eq!(&buf[20..24], &1u32.to_le_bytes()); // Ethernet
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = vec![0u8; 24];
        assert!(matches!(read_trace(&buf[..]), Err(PcapError::BadMagic(0))));
    }

    #[test]
    fn truncated_record_reported() {
        let mut rng = Rng::seed_from_u64(3);
        let trace = benign_trace(5, 1.0, &mut rng);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(matches!(read_trace(&buf[..]), Err(PcapError::Truncated)));
    }

    #[test]
    fn icmp_packets_survive_where_parseable() {
        // ICMP packets carry a raw 8-byte L4 stub; they should round-trip
        // with ports zeroed.
        let mut rng = Rng::seed_from_u64(4);
        let trace = Attack::OsScan.trace(5, 1.0, &mut rng);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.len(), trace.len());
        assert!(back.packets.iter().all(|p| p.five.proto == 1));
    }
}
