//! Minimal streaming gzip (RFC 1952) / DEFLATE (RFC 1951) decompression.
//!
//! Real-world edge lists (SNAP, KONECT, the paper's Wikipedia snapshot)
//! ship gzip-compressed; the vendored dependency policy rules out `flate2`,
//! so this module implements the decoder from the RFCs: stored, fixed- and
//! dynamic-Huffman blocks, the 32 KiB LZ77 window, multi-member streams,
//! and CRC32/ISIZE trailer verification.
//!
//! [`GzDecoder`] implements [`Read`] and decompresses incrementally into
//! one bounded buffer — the 32 KiB window back-references reach into, then
//! the bytes not yet read, which `read` copies out in slices — so piping a
//! multi-gigabyte `.txt.gz` edge list into the external-memory `.ocg`
//! builder keeps its bounded-memory guarantee. Throughput is secondary (a
//! simple canonical Huffman bit-by-bit decoder, no multi-bit lookup
//! tables): decoding, on one thread, costs several times the parse of the
//! text it yields.

use std::io::{BufRead, Error, ErrorKind, Read, Result};

const WINDOW: usize = 32 * 1024;
/// Decode at most this far ahead of the reader per `read` call.
const OUT_TARGET: usize = 16 * 1024;

fn bad(message: &str) -> Error {
    Error::new(ErrorKind::InvalidData, format!("gzip: {message}"))
}

fn truncated() -> Error {
    Error::new(ErrorKind::UnexpectedEof, "gzip: truncated stream")
}

// ---------------------------------------------------------------- crc32

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xffff_ffff)
    }

    fn update(&mut self, byte: u8) {
        self.0 = CRC_TABLE[((self.0 ^ byte as u32) & 0xff) as usize] ^ (self.0 >> 8);
    }

    fn finish(&self) -> u32 {
        self.0 ^ 0xffff_ffff
    }
}

// ------------------------------------------------------------- bit input

#[derive(Debug)]
struct Bits<R> {
    inner: R,
    buf: u32,
    count: u32,
}

impl<R: BufRead> Bits<R> {
    fn new(inner: R) -> Self {
        Bits {
            inner,
            buf: 0,
            count: 0,
        }
    }

    /// The next byte of the underlying reader.
    fn next_byte(&mut self) -> Result<u8> {
        let mut byte = [0u8; 1];
        match self.inner.read_exact(&mut byte) {
            Ok(()) => Ok(byte[0]),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => Err(truncated()),
            Err(e) => Err(e),
        }
    }

    /// Pulls one byte from the underlying reader (the bit buffer must be
    /// empty or aligned; used for headers, trailers and stored blocks).
    fn read_byte(&mut self) -> Result<u8> {
        debug_assert_eq!(self.count % 8, 0);
        if self.count >= 8 {
            let b = (self.buf & 0xff) as u8;
            self.buf >>= 8;
            self.count -= 8;
            return Ok(b);
        }
        self.next_byte()
    }

    /// True when the underlying stream (and bit buffer) is exhausted.
    fn at_eof(&mut self) -> Result<bool> {
        Ok(self.count == 0 && self.inner.fill_buf()?.is_empty())
    }

    fn read_bit(&mut self) -> Result<u32> {
        if self.count == 0 {
            self.buf = self.next_byte()? as u32;
            self.count = 8;
        }
        let bit = self.buf & 1;
        self.buf >>= 1;
        self.count -= 1;
        Ok(bit)
    }

    /// Reads `n ≤ 16` bits, LSB first (DEFLATE's packing order).
    fn read_bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!(n <= 16);
        let mut value = 0u32;
        for i in 0..n {
            value |= self.read_bit()? << i;
        }
        Ok(value)
    }

    /// Discards bits up to the next byte boundary.
    fn align(&mut self) {
        let drop = self.count % 8;
        self.buf >>= drop;
        self.count -= drop;
    }
}

// ------------------------------------------------------ canonical huffman

/// A canonical Huffman decoder: per-length first code / symbol ranges
/// (RFC 1951 §3.2.2), walked bit by bit.
#[derive(Debug, Clone)]
struct Huffman {
    count: [u16; 16],
    first: [u32; 16],
    base: [u32; 16],
    syms: Vec<u16>,
}

impl Huffman {
    fn build(lengths: &[u8]) -> Result<Huffman> {
        let mut count = [0u16; 16];
        for &len in lengths {
            if len > 15 {
                return Err(bad("code length exceeds 15"));
            }
            count[len as usize] += 1;
        }
        // Length 0 means "symbol unused" — it must not shift the canonical
        // code assignment below.
        count[0] = 0;
        // Over-subscribed codes are invalid; incomplete ones only matter
        // if the stream actually walks into the gap (caught in decode).
        let mut left = 1i32;
        for &c in &count[1..] {
            left = (left << 1) - c as i32;
            if left < 0 {
                return Err(bad("over-subscribed huffman code"));
            }
        }
        let mut first = [0u32; 16];
        let mut base = [0u32; 16];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..16 {
            code = (code + count[len - 1] as u32) << 1;
            first[len] = code;
            base[len] = index;
            index += count[len] as u32;
        }
        let mut offsets = base;
        let mut syms = vec![0u16; lengths.iter().filter(|&&l| l != 0).count()];
        for (sym, &len) in lengths.iter().enumerate() {
            if len != 0 {
                syms[offsets[len as usize] as usize] = sym as u16;
                offsets[len as usize] += 1;
            }
        }
        Ok(Huffman {
            count,
            first,
            base,
            syms,
        })
    }

    fn decode<R: BufRead>(&self, bits: &mut Bits<R>) -> Result<u16> {
        let mut code = 0u32;
        for len in 1..16 {
            code |= bits.read_bit()?;
            let n = self.count[len] as u32;
            if n != 0 && code >= self.first[len] && code < self.first[len] + n {
                return Ok(self.syms[(self.base[len] + code - self.first[len]) as usize]);
            }
            code <<= 1;
        }
        Err(bad("invalid huffman code"))
    }
}

fn fixed_literal_tree() -> Huffman {
    let mut lengths = [0u8; 288];
    lengths[..144].fill(8);
    lengths[144..256].fill(9);
    lengths[256..280].fill(7);
    lengths[280..].fill(8);
    Huffman::build(&lengths).expect("fixed literal tree is well-formed")
}

fn fixed_distance_tree() -> Huffman {
    Huffman::build(&[5u8; 30]).expect("fixed distance tree is well-formed")
}

const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Order in which code-length-code lengths are stored (RFC 1951 §3.2.7).
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

// --------------------------------------------------------------- decoder

// One `State` lives per decoder, so the size gap between `Huffman` (two
// decode tables) and the unit variants costs nothing; boxing the tables
// would add a pointer chase to every decoded symbol.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum State {
    /// Expecting a gzip member header (or clean EOF after ≥ 1 member).
    MemberHeader,
    /// Expecting a DEFLATE block header.
    BlockHeader,
    /// Inside a stored block with `remaining` bytes to copy.
    Stored {
        remaining: u16,
    },
    /// Inside a Huffman-coded block.
    Huffman {
        lit: Huffman,
        dist: Huffman,
    },
    /// Expecting the CRC32/ISIZE member trailer.
    Trailer,
    Done,
}

/// Decoded bytes: the history LZ77 back-references reach into, and past
/// `unread` the bytes not yet handed to the reader.
#[derive(Debug)]
struct History {
    bytes: Vec<u8>,
    unread: usize,
    /// Total bytes emitted in the current member (mod 2³² for ISIZE).
    emitted: u64,
    crc: Crc32,
}

impl History {
    fn pending(&self) -> usize {
        self.bytes.len() - self.unread
    }

    fn push(&mut self, byte: u8) {
        self.bytes.push(byte);
        self.emitted += 1;
        self.crc.update(byte);
    }

    /// Repeats the `length` bytes that start `distance` back (a copy may
    /// overlap what it writes).
    fn copy(&mut self, distance: usize, length: usize) -> Result<()> {
        if distance as u64 > self.emitted.min(WINDOW as u64) {
            return Err(bad("back-reference before start of output"));
        }
        let from = self.bytes.len() - distance;
        for at in from..from + length {
            self.push(self.bytes[at]);
        }
        Ok(())
    }
}

/// Streaming gzip decompressor over any buffered reader.
///
/// Handles everything the format allows in the wild: stored and both
/// Huffman block types, optional header fields, and concatenated members.
/// The CRC32 and length trailers of every member are verified, so a
/// truncated or corrupted download fails loudly instead of producing a
/// silently short edge list.
#[derive(Debug)]
pub struct GzDecoder<R: BufRead> {
    bits: Bits<R>,
    state: State,
    /// Set once the final block of the current member is being processed.
    final_block: bool,
    out: History,
    members: u32,
}

impl<R: BufRead> GzDecoder<R> {
    /// Wraps a buffered reader positioned at the start of a gzip stream.
    pub fn new(inner: R) -> Self {
        GzDecoder {
            bits: Bits::new(inner),
            state: State::MemberHeader,
            final_block: false,
            out: History {
                // Room for a window of history, a window not yet dropped,
                // and one decode's output (overshot by at most one match).
                bytes: Vec::with_capacity(2 * WINDOW + OUT_TARGET + 258),
                unread: 0,
                emitted: 0,
                crc: Crc32::new(),
            },
            members: 0,
        }
    }

    fn read_member_header(&mut self) -> Result<()> {
        let id1 = self.bits.read_byte()?;
        let id2 = self.bits.read_byte()?;
        if id1 != 0x1f || id2 != 0x8b {
            return Err(bad("bad magic bytes"));
        }
        if self.bits.read_byte()? != 8 {
            return Err(bad("unsupported compression method (want deflate)"));
        }
        let flags = self.bits.read_byte()?;
        if flags & 0xe0 != 0 {
            return Err(bad("reserved header flag bits set"));
        }
        for _ in 0..6 {
            self.bits.read_byte()?; // MTIME, XFL, OS
        }
        if flags & 0x04 != 0 {
            // FEXTRA: u16 length + payload.
            let lo = self.bits.read_byte()? as u16;
            let hi = self.bits.read_byte()? as u16;
            for _ in 0..(hi << 8 | lo) {
                self.bits.read_byte()?;
            }
        }
        for flag in [0x08u8, 0x10] {
            // FNAME / FCOMMENT: zero-terminated strings.
            if flags & flag != 0 {
                while self.bits.read_byte()? != 0 {}
            }
        }
        if flags & 0x02 != 0 {
            self.bits.read_byte()?; // FHCRC
            self.bits.read_byte()?;
        }
        self.out.crc = Crc32::new();
        self.out.emitted = 0;
        self.final_block = false;
        Ok(())
    }

    fn read_block_header(&mut self) -> Result<State> {
        self.final_block = self.bits.read_bit()? == 1;
        match self.bits.read_bits(2)? {
            0 => {
                self.bits.align();
                let len = self.bits.read_bits(16)? as u16;
                let nlen = self.bits.read_bits(16)? as u16;
                if len != !nlen {
                    return Err(bad("stored block length check failed"));
                }
                Ok(State::Stored { remaining: len })
            }
            1 => Ok(State::Huffman {
                lit: fixed_literal_tree(),
                dist: fixed_distance_tree(),
            }),
            2 => {
                let (lit, dist) = self.read_dynamic_trees()?;
                Ok(State::Huffman { lit, dist })
            }
            _ => Err(bad("reserved block type")),
        }
    }

    fn read_dynamic_trees(&mut self) -> Result<(Huffman, Huffman)> {
        let hlit = self.bits.read_bits(5)? as usize + 257;
        let hdist = self.bits.read_bits(5)? as usize + 1;
        let hclen = self.bits.read_bits(4)? as usize + 4;
        let mut clen_lengths = [0u8; 19];
        for &slot in CLEN_ORDER.iter().take(hclen) {
            clen_lengths[slot] = self.bits.read_bits(3)? as u8;
        }
        let clen_tree = Huffman::build(&clen_lengths)?;
        let mut lengths = vec![0u8; hlit + hdist];
        let mut i = 0;
        while i < lengths.len() {
            let (length, reps) = match clen_tree.decode(&mut self.bits)? {
                sym @ 0..=15 => (sym as u8, 1),
                16 if i == 0 => return Err(bad("repeat with no previous code length")),
                16 => (lengths[i - 1], 3 + self.bits.read_bits(2)? as usize),
                17 => (0, 3 + self.bits.read_bits(3)? as usize),
                18 => (0, 11 + self.bits.read_bits(7)? as usize),
                _ => return Err(bad("invalid code length symbol")),
            };
            if i + reps > lengths.len() {
                return Err(bad("code length repeat overflows"));
            }
            lengths[i..i + reps].fill(length);
            i += reps;
        }
        let lit = Huffman::build(&lengths[..hlit])?;
        let dist = Huffman::build(&lengths[hlit..])?;
        Ok((lit, dist))
    }

    fn read_trailer(&mut self) -> Result<()> {
        self.bits.align();
        let mut trailer = [0u8; 8];
        for slot in &mut trailer {
            *slot = self.bits.read_byte()?;
        }
        let crc = u32::from_le_bytes(trailer[..4].try_into().unwrap());
        let isize = u32::from_le_bytes(trailer[4..].try_into().unwrap());
        if crc != self.out.crc.finish() {
            return Err(bad("CRC32 mismatch"));
        }
        if isize != self.out.emitted as u32 {
            return Err(bad("uncompressed length (ISIZE) mismatch"));
        }
        self.members += 1;
        Ok(())
    }

    /// Runs the state machine until at least `OUT_TARGET` bytes are
    /// unread, the member needs a state change, or the stream ends.
    fn decode_some(&mut self) -> Result<()> {
        // Keep a window of the history the reader has read, once there is
        // another window's worth before it.
        let drop = self.out.unread.saturating_sub(WINDOW);
        if drop >= WINDOW {
            self.out.bytes.drain(..drop);
            self.out.unread -= drop;
        }
        while self.out.pending() < OUT_TARGET {
            match &self.state {
                State::Done => return Ok(()),
                State::MemberHeader => {
                    if self.members > 0 && self.bits.at_eof()? {
                        self.state = State::Done;
                        return Ok(());
                    }
                    self.read_member_header()?;
                    self.state = State::BlockHeader;
                }
                State::BlockHeader => {
                    self.state = self.read_block_header()?;
                }
                State::Stored { remaining } => {
                    let mut remaining = *remaining;
                    while remaining > 0 && self.out.pending() < OUT_TARGET {
                        let byte = self.bits.read_byte()?;
                        self.out.push(byte);
                        remaining -= 1;
                    }
                    self.state = if remaining > 0 {
                        State::Stored { remaining }
                    } else if self.final_block {
                        State::Trailer
                    } else {
                        State::BlockHeader
                    };
                }
                State::Huffman { lit, dist } => {
                    let mut block_done = false;
                    while self.out.pending() < OUT_TARGET {
                        match lit.decode(&mut self.bits)? {
                            sym @ 0..=255 => self.out.push(sym as u8),
                            256 => {
                                block_done = true;
                                break;
                            }
                            sym @ 257..=285 => {
                                let idx = sym as usize - 257;
                                let length = LENGTH_BASE[idx] as usize
                                    + self.bits.read_bits(LENGTH_EXTRA[idx] as u32)? as usize;
                                let dsym = dist.decode(&mut self.bits)? as usize;
                                if dsym >= 30 {
                                    return Err(bad("invalid distance symbol"));
                                }
                                let distance = DIST_BASE[dsym] as usize
                                    + self.bits.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                                self.out.copy(distance, length)?;
                            }
                            _ => return Err(bad("invalid literal/length symbol")),
                        }
                    }
                    if block_done {
                        self.state = if self.final_block {
                            State::Trailer
                        } else {
                            State::BlockHeader
                        };
                    }
                }
                State::Trailer => {
                    self.read_trailer()?;
                    self.state = State::MemberHeader;
                }
            }
        }
        Ok(())
    }
}

impl<R: BufRead> Read for GzDecoder<R> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.out.pending() == 0 {
            self.decode_some()?;
        }
        let out = &mut self.out;
        let n = buf.len().min(out.pending());
        buf[..n].copy_from_slice(&out.bytes[out.unread..out.unread + n]);
        out.unread += n;
        Ok(n)
    }
}

/// Decompresses a complete gzip byte slice (convenience for tests and
/// small inputs; large streams should use [`GzDecoder`] directly).
pub fn gunzip(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    GzDecoder::new(bytes).read_to_end(&mut out)?;
    Ok(out)
}

/// `plain` as one gzip member of stored (uncompressed) DEFLATE blocks: a
/// gzip input for tests, which this crate has no compressor to make.
#[cfg(test)]
pub(crate) fn gzip_stored(plain: &[u8]) -> Vec<u8> {
    let mut out = vec![0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff];
    let mut blocks = plain.chunks(u16::MAX as usize).peekable();
    if blocks.peek().is_none() {
        out.extend_from_slice(&[1, 0, 0, 0xff, 0xff]);
    }
    while let Some(block) = blocks.next() {
        let len = block.len() as u16;
        out.push(u8::from(blocks.peek().is_none()));
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(block);
    }
    let mut crc = Crc32::new();
    plain.iter().for_each(|&b| crc.update(b));
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(&(plain.len() as u32).to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_members_round_trip() {
        for len in [0, 1, 65_535, 65_536, 200_000] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            assert_eq!(gunzip(&gzip_stored(&plain)).unwrap(), plain, "{len} bytes");
        }
    }

    // Reference vectors generated with CPython's zlib (gzip.compress with
    // mtime=0); each is (compressed bytes, expected plaintext).

    /// `gzip.compress(b"hello hello hello hello\n", 9, mtime=0)`
    const HELLO: &[u8] = &[
        0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x03, 0xcb, 0x48, 0xcd, 0xc9, 0xc9,
        0x57, 0xc8, 0x40, 0x27, 0xb9, 0x00, 0x00, 0x88, 0x59, 0x0b, 0x18, 0x00, 0x00, 0x00,
    ];
    const HELLO_PLAIN: &[u8] = b"hello hello hello hello\n";

    /// `gzip.compress(b"0 1\n1 2\n2 0\n", 0, mtime=0)` — stored blocks.
    const STORED: &[u8] = &[
        0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x03, 0x01, 0x0c, 0x00, 0xf3, 0xff,
        0x30, 0x20, 0x31, 0x0a, 0x31, 0x20, 0x32, 0x0a, 0x32, 0x20, 0x30, 0x0a, 0x7b, 0x61, 0x5b,
        0x23, 0x0c, 0x00, 0x00, 0x00,
    ];
    const STORED_PLAIN: &[u8] = b"0 1\n1 2\n2 0\n";

    /// `gzip.compress(plain, 9, mtime=0)` where `plain` is the 200-line
    /// edge list `"\n".join(f"{i} {i*7%97}" for i in range(200)) + "\n"` —
    /// long enough that zlib emits a dynamic-Huffman block.
    const DYNAMIC: &[u8] = &[
        0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x03, 0x25, 0xd4, 0xbb, 0x81, 0x05,
        0x21, 0x0c, 0x43, 0xd1, 0x5c, 0x55, 0xa8, 0x84, 0x11, 0xe6, 0x63, 0xfa, 0x6f, 0x6c, 0x2f,
        0x6f, 0x13, 0x65, 0x0c, 0x83, 0x75, 0xe0, 0xf3, 0xa7, 0xf8, 0x68, 0x38, 0x53, 0xe5, 0x11,
        0x4d, 0x8f, 0xd6, 0x72, 0x2d, 0x6d, 0xcf, 0xa1, 0xe3, 0x79, 0xd5, 0x5e, 0x5b, 0xd7, 0xbb,
        0x94, 0xcf, 0x87, 0x15, 0x2c, 0x39, 0xca, 0x70, 0x4f, 0xa5, 0x7c, 0xa3, 0x4c, 0x13, 0xcb,
        0xad, 0x6c, 0x67, 0x29, 0xc7, 0x63, 0x28, 0xed, 0x71, 0x95, 0xeb, 0xda, 0x1a, 0x9f, 0x67,
        0x69, 0xc4, 0xeb, 0xd3, 0x18, 0x5e, 0xec, 0x59, 0xde, 0x53, 0x63, 0xfa, 0x44, 0x63, 0xf9,
        0xb4, 0xc6, 0x76, 0x2f, 0x8d, 0xe3, 0x3b, 0x34, 0x58, 0xab, 0x71, 0x7d, 0x55, 0x9f, 0xb3,
        0x55, 0xf1, 0x28, 0xd5, 0x70, 0x7d, 0xaa, 0x72, 0x1d, 0xd5, 0xf4, 0xe4, 0xa7, 0x97, 0x57,
        0x54, 0xdb, 0xab, 0x55, 0xc7, 0x7b, 0xa9, 0xda, 0x67, 0xa8, 0xae, 0xcf, 0xd5, 0xfc, 0xdc,
        0x5b, 0x33, 0xbe, 0xa5, 0xc9, 0x5a, 0xcd, 0x72, 0x3e, 0x4d, 0x7e, 0xf7, 0x68, 0x2e, 0x8f,
        0xa9, 0xb9, 0x5d, 0x1c, 0xfb, 0xb8, 0x5a, 0xb3, 0x3d, 0x97, 0xe6, 0xf5, 0x1a, 0x5a, 0x9f,
        0xd7, 0xd5, 0x8a, 0xf7, 0xd6, 0x1a, 0x3e, 0xa5, 0x55, 0xee, 0x4f, 0x6b, 0xba, 0x8f, 0xd6,
        0xf2, 0x9d, 0x5a, 0xcc, 0x48, 0xeb, 0x38, 0xd1, 0x6a, 0x87, 0xc1, 0x5d, 0x0f, 0x26, 0xf7,
        0xb9, 0x86, 0x76, 0x5c, 0x57, 0x7b, 0x78, 0x6e, 0xed, 0xf2, 0x2a, 0xed, 0xe9, 0xfd, 0x69,
        0x2f, 0xef, 0xa3, 0xbd, 0x7d, 0xa6, 0xf6, 0x71, 0x47, 0xbb, 0xdd, 0xad, 0xcd, 0x61, 0x97,
        0x0e, 0xdb, 0xea, 0xc4, 0x61, 0xf6, 0xb4, 0x72, 0x75, 0xa8, 0x65, 0xeb, 0x4c, 0x57, 0xe9,
        0x2c, 0xcf, 0x4f, 0x87, 0x5d, 0x8f, 0xce, 0xf1, 0x9a, 0x3a, 0xed, 0x1d, 0x1d, 0xca, 0x69,
        0x35, 0xe5, 0x2c, 0x75, 0xdc, 0x43, 0x4d, 0x39, 0x14, 0x47, 0x39, 0x5b, 0xcd, 0xb6, 0xea,
        0xe5, 0x94, 0x7a, 0x7b, 0x7c, 0x6a, 0xda, 0x39, 0xea, 0x76, 0x4d, 0xf5, 0xf5, 0x8c, 0x2e,
        0xed, 0xb4, 0x2e, 0xed, 0x2c, 0xdd, 0xe1, 0x3d, 0x74, 0x69, 0xe7, 0xea, 0xd2, 0x0e, 0xd5,
        0x53, 0x6c, 0xe9, 0x6e, 0xdf, 0x4f, 0xf7, 0x40, 0xe6, 0x32, 0x62, 0xdd, 0xfb, 0xd0, 0xe4,
        0xfb, 0x1e, 0x9b, 0x7c, 0x79, 0x70, 0xf2, 0x8d, 0x47, 0x27, 0x5f, 0x3d, 0x3c, 0xf9, 0xe6,
        0xe3, 0x93, 0x6f, 0x3d, 0x40, 0xf9, 0xf6, 0x3f, 0xa1, 0xf3, 0x33, 0xf4, 0xf5, 0x0f, 0xd1,
        0x77, 0x7f, 0x8a, 0x80, 0xf5, 0x18, 0x21, 0xeb, 0xe5, 0x78, 0x90, 0x90, 0xf5, 0x24, 0x41,
        0xeb, 0x51, 0x02, 0xd7, 0xb3, 0x04, 0x2f, 0x30, 0x05, 0x5f, 0x68, 0x0a, 0xc0, 0xd6, 0xe3,
        0x78, 0x9f, 0xa7, 0x40, 0x0c, 0x50, 0xc1, 0x18, 0xa2, 0x02, 0x32, 0x48, 0x05, 0x65, 0x98,
        0x0a, 0xcc, 0x40, 0x15, 0x9c, 0xbd, 0xe4, 0x24, 0xe4, 0x79, 0xae, 0xf2, 0xa0, 0xf1, 0x29,
        0xa8, 0x21, 0x2b, 0x60, 0x83, 0x56, 0xd0, 0x36, 0x9f, 0xed, 0xf1, 0x70, 0x05, 0x6f, 0xe8,
        0x0a, 0xe0, 0xe0, 0x15, 0xc4, 0xe1, 0x2b, 0x90, 0x03, 0x58, 0x30, 0x87, 0xb0, 0x80, 0x0e,
        0x62, 0x41, 0x1d, 0x89, 0x3a, 0x90, 0x05, 0x76, 0x28, 0x0b, 0xee, 0x60, 0x16, 0xe4, 0xd5,
        0xbb, 0x28, 0xf3, 0x41, 0x0b, 0xf6, 0x90, 0x16, 0xf0, 0x41, 0x2d, 0xe8, 0xc3, 0x5a, 0xe0,
        0x07, 0xb6, 0xe0, 0x0f, 0x6d, 0x01, 0x20, 0xdc, 0x82, 0x40, 0xbc, 0x05, 0x82, 0x80, 0x0b,
        0x06, 0x5f, 0xce, 0x47, 0x2e, 0x20, 0xc4, 0x5c, 0x50, 0x08, 0xba, 0xe0, 0x10, 0x75, 0x01,
        0x22, 0xec, 0x82, 0x44, 0xdc, 0x05, 0x8a, 0xc0, 0x0b, 0x16, 0x91, 0x17, 0x30, 0x42, 0x2f,
        0x68, 0xc4, 0x5e, 0xe0, 0x08, 0xbe, 0xe0, 0xb1, 0xdf, 0xbd, 0xdd, 0x8f, 0x5f, 0x10, 0xf9,
        0xb2, 0x1f, 0xc0, 0x40, 0x12, 0x81, 0xc1, 0x24, 0x04, 0x83, 0x4a, 0x0c, 0x06, 0x96, 0x20,
        0x0c, 0x2e, 0x51, 0x18, 0x60, 0xc2, 0x30, 0xc8, 0xc4, 0x61, 0xa0, 0x09, 0xc4, 0x60, 0xf3,
        0xbc, 0x47, 0xa0, 0x1f, 0xc5, 0xa0, 0x13, 0x8b, 0x81, 0x27, 0x18, 0x83, 0xcf, 0x97, 0xe3,
        0x71, 0x0c, 0x40, 0xf1, 0x18, 0x84, 0x02, 0x32, 0x18, 0x45, 0x64, 0x40, 0x0a, 0xc9, 0xa0,
        0x14, 0x93, 0x81, 0x29, 0x28, 0x83, 0x53, 0x54, 0x06, 0xa8, 0xfb, 0x3d, 0x29, 0x79, 0x2e,
        0x03, 0x55, 0x60, 0x06, 0xab, 0xc8, 0x0c, 0x58, 0x5f, 0x52, 0x0f, 0xb9, 0x7f, 0x38, 0xd1,
        0xfa, 0x70, 0xe2, 0xf5, 0xe1, 0x44, 0x2c, 0x38, 0xff, 0x00, 0xb4, 0x1d, 0x7c, 0x1b, 0xf4,
        0x04, 0x00, 0x00,
    ];

    fn dynamic_plain() -> Vec<u8> {
        let mut s = String::new();
        for i in 0..200u32 {
            s.push_str(&format!("{} {}\n", i, i * 7 % 97));
        }
        s.into_bytes()
    }

    #[test]
    fn decodes_fixed_huffman_member() {
        assert_eq!(gunzip(HELLO).unwrap(), HELLO_PLAIN);
    }

    #[test]
    fn decodes_stored_member() {
        assert_eq!(gunzip(STORED).unwrap(), STORED_PLAIN);
    }

    #[test]
    fn decodes_dynamic_huffman_member() {
        assert_eq!(gunzip(DYNAMIC).unwrap(), dynamic_plain());
    }

    #[test]
    fn decodes_concatenated_members() {
        let mut both = HELLO.to_vec();
        both.extend_from_slice(STORED);
        let mut expected = HELLO_PLAIN.to_vec();
        expected.extend_from_slice(STORED_PLAIN);
        assert_eq!(gunzip(&both).unwrap(), expected);
    }

    #[test]
    fn rejects_corrupted_payload() {
        let mut bytes = HELLO.to_vec();
        bytes[12] ^= 0x40;
        assert!(gunzip(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let bytes = &HELLO[..HELLO.len() - 6];
        let err = gunzip(bytes).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(gunzip(b"plainly not gzip").is_err());
    }

    #[test]
    fn small_reads_stream_correctly() {
        let mut dec = GzDecoder::new(HELLO);
        let mut out = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match dec.read(&mut byte).unwrap() {
                0 => break,
                _ => out.push(byte[0]),
            }
        }
        assert_eq!(out, HELLO_PLAIN);
    }
}
