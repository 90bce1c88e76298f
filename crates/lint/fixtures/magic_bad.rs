pub const MY_MAGIC: u16 = 0xEA5F;
pub const SPLIT: [u8; 2] = [0xEA, 0x5F];
pub const TAG: &[u8] = b"EASEBEL1";
