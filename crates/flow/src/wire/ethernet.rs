//! Ethernet II framing.

use super::WireError;

/// Length of an Ethernet II header (no 802.1Q tag support, like smoltcp).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// EtherType values we emit/accept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EtherType {
    Ipv4,
    Arp,
    /// Anything else, carried verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(o) => o,
        }
    }
}

/// Zero-copy view over an Ethernet II frame.
#[derive(Debug)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wraps a buffer, validating minimum length.
    pub fn new_checked(buffer: T) -> Result<Self, WireError> {
        if buffer.as_ref().len() < ETHERNET_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(Self { buffer })
    }

    pub fn dst_mac(&self) -> [u8; 6] {
        self.buffer.as_ref()[0..6].try_into().unwrap()
    }

    pub fn src_mac(&self) -> [u8; 6] {
        self.buffer.as_ref()[6..12].try_into().unwrap()
    }

    pub fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[12], b[13]]).into()
    }

    /// The L3 payload.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[ETHERNET_HEADER_LEN..]
    }

    pub fn into_inner(self) -> T {
        self.buffer
    }
}

/// Emits an Ethernet II header into the front of `buf`.
pub fn emit(buf: &mut [u8], src: [u8; 6], dst: [u8; 6], ethertype: EtherType) {
    assert!(buf.len() >= ETHERNET_HEADER_LEN, "buffer too small for Ethernet header");
    buf[0..6].copy_from_slice(&dst);
    buf[6..12].copy_from_slice(&src);
    let v: u16 = ethertype.into();
    buf[12..14].copy_from_slice(&v.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = vec![0u8; 20];
        emit(&mut buf, [1; 6], [2; 6], EtherType::Ipv4);
        let f = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.src_mac(), [1; 6]);
        assert_eq!(f.dst_mac(), [2; 6]);
        assert_eq!(f.ethertype(), EtherType::Ipv4);
        assert_eq!(f.payload().len(), 6);
    }

    #[test]
    fn rejects_short_buffer() {
        assert_eq!(EthernetFrame::new_checked(&[0u8; 13][..]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn ethertype_conversion() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }
}
