//! IPv4 header view with checksum support (no options).

use super::checksum;
use super::WireError;

/// Length of an IPv4 header without options (IHL = 5).
pub const IPV4_HEADER_LEN: usize = 20;

/// Zero-copy view over an IPv4 packet.
#[derive(Debug)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps and validates: version, IHL, total length vs buffer.
    pub fn new_checked(buffer: T) -> Result<Self, WireError> {
        let b = buffer.as_ref();
        if b.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if b[0] >> 4 != 4 {
            return Err(WireError::Unsupported);
        }
        let ihl = (b[0] & 0x0F) as usize * 4;
        if ihl < IPV4_HEADER_LEN || b.len() < ihl {
            return Err(WireError::BadLength);
        }
        let total = u16::from_be_bytes([b[2], b[3]]) as usize;
        if total < ihl || total > b.len() {
            return Err(WireError::BadLength);
        }
        Ok(Self { buffer })
    }

    fn header_len(&self) -> usize {
        (self.buffer.as_ref()[0] & 0x0F) as usize * 4
    }

    pub fn total_len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    pub fn identification(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[9]
    }

    pub fn src_ip(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[12], b[13], b[14], b[15]])
    }

    pub fn dst_ip(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[16], b[17], b[18], b[19]])
    }

    /// True iff the header checksum verifies.
    pub fn verify_checksum(&self) -> bool {
        let hlen = self.header_len();
        checksum::verify(&self.buffer.as_ref()[..hlen])
    }

    /// L4 payload as delimited by `total_len`.
    pub fn payload(&self) -> &[u8] {
        let hlen = self.header_len();
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[hlen..total]
    }
}

/// Field bundle for emission.
#[derive(Clone, Copy, Debug)]
pub struct Ipv4Repr {
    pub src_ip: u32,
    pub dst_ip: u32,
    pub protocol: u8,
    pub ttl: u8,
    pub identification: u16,
    /// L4 payload length in bytes.
    pub payload_len: u16,
}

/// Emits a 20-byte IPv4 header (checksum included) into the front of `buf`.
pub fn emit(buf: &mut [u8], repr: &Ipv4Repr) {
    assert!(buf.len() >= IPV4_HEADER_LEN, "buffer too small for IPv4 header");
    let total = IPV4_HEADER_LEN as u16 + repr.payload_len;
    buf[0] = 0x45; // version 4, IHL 5
    buf[1] = 0; // DSCP/ECN
    buf[2..4].copy_from_slice(&total.to_be_bytes());
    buf[4..6].copy_from_slice(&repr.identification.to_be_bytes());
    buf[6..8].copy_from_slice(&[0x40, 0x00]); // DF, no fragmentation
    buf[8] = repr.ttl;
    buf[9] = repr.protocol;
    buf[10..12].copy_from_slice(&[0, 0]);
    buf[12..16].copy_from_slice(&repr.src_ip.to_be_bytes());
    buf[16..20].copy_from_slice(&repr.dst_ip.to_be_bytes());
    let ck = checksum::checksum(&buf[..IPV4_HEADER_LEN]);
    buf[10..12].copy_from_slice(&ck.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repr() -> Ipv4Repr {
        Ipv4Repr {
            src_ip: 0x0A000001,
            dst_ip: 0xC0A80101,
            protocol: 6,
            ttl: 64,
            identification: 0x1234,
            payload_len: 8,
        }
    }

    #[test]
    fn emit_then_parse_roundtrips() {
        let mut buf = vec![0u8; 28];
        emit(&mut buf, &repr());
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.src_ip(), 0x0A000001);
        assert_eq!(p.dst_ip(), 0xC0A80101);
        assert_eq!(p.protocol(), 6);
        assert_eq!(p.ttl(), 64);
        assert_eq!(p.total_len(), 28);
        assert_eq!(p.identification(), 0x1234);
        assert!(p.verify_checksum());
        assert_eq!(p.payload().len(), 8);
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let mut buf = vec![0u8; 28];
        emit(&mut buf, &repr());
        buf[8] = 32; // mutate TTL after checksum
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!p.verify_checksum());
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = vec![0u8; 28];
        emit(&mut buf, &repr());
        buf[0] = 0x65; // IPv6-ish version nibble
        assert_eq!(Ipv4Packet::new_checked(&buf[..]).unwrap_err(), WireError::Unsupported);
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let mut buf = vec![0u8; 28];
        emit(&mut buf, &repr());
        buf[2..4].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(Ipv4Packet::new_checked(&buf[..]).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(Ipv4Packet::new_checked(&[0x45u8; 10][..]).unwrap_err(), WireError::Truncated);
    }
}
