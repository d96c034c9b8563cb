//! # inspire-store — single-file versioned snapshot container
//!
//! The engine's persistent products (vocabulary, postings, statistics,
//! signatures, coordinates, …) are stored in one self-describing file so
//! that query serving and checkpoint/resume load in milliseconds instead
//! of re-running the pipeline. The container is deliberately dumb: it
//! knows nothing about the engine, only about **named, typed, checksummed
//! byte sections**.
//!
//! ## File layout (all integers little-endian)
//!
//! ```text
//! [0 ..  8)  magic  "INSPSNP1"
//! [8 .. 12)  format version (u32, currently 2)
//! [12.. 16)  section count (u32)
//! [16.. 24)  section table offset (u64, 64-byte aligned)
//! [24.. 32)  total file size (u64)
//! [32.. 36)  header CRC32 over bytes [0..32)
//! [36.. 64)  reserved, must be zero
//! -- sections, contiguous, each starting at a 64-byte-aligned offset --
//! [u64 payload length][payload bytes][zero padding to the next 64-byte
//! boundary]; the section CRC covers this whole padded extent.
//! -- section table at the table offset --
//! per section, 32 bytes: name (8 bytes, NUL-padded ASCII), offset (u64),
//! payload length (u64), element kind (u32), CRC32 (u32)
//! -- trailing u32: CRC32 over the table bytes --
//! ```
//!
//! Every byte of the file is covered by exactly one checksum (header CRC,
//! a section CRC, or the table CRC), and the header records the total
//! size, so **any** single bit flip, truncation, or appended garbage is
//! rejected at open time — there is no silent partial load.
//!
//! ## Version-bump rules
//!
//! * Adding a new section, or new meaning for unused bytes of an existing
//!   section, does **not** bump the format version — readers ignore
//!   sections they don't know.
//! * Changing the header, table entry layout, alignment, or the encoding
//!   of an existing section **bumps** `FORMAT_VERSION`; readers reject
//!   versions they don't understand rather than guessing.
//! * Version 2 added the [`SectionKind::Packed`] and [`SectionKind::Skip`]
//!   element kinds (block-compressed lists, see [`codec`]). A version-1
//!   reader rejects a version-2 file twice over — by the version number
//!   and by the unknown kinds — while this reader accepts any version in
//!   `MIN_FORMAT_VERSION..=FORMAT_VERSION`, so pre-bump fixed-width
//!   files stay loadable.
//!
//! ## Zero-copy typed views
//!
//! The reader loads the file into an 8-byte-aligned buffer; because every
//! payload starts 8 bytes past a 64-byte boundary, `u32`/`u64`/`i64`/
//! `f64` views are reinterpretations of the section bytes — no per-row
//! parsing on load.

pub mod codec;
mod crc;
mod publish;

pub use crc::{crc32, Crc32};
pub use publish::publish_atomic;

use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes identifying a snapshot container.
pub const MAGIC: &[u8; 8] = b"INSPSNP1";

/// Current container format version (see the version-bump rules above).
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version this reader still accepts.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Section alignment: payloads start 8 bytes past these boundaries.
pub const ALIGN: u64 = 64;

const HEADER_LEN: u64 = 64;
const TABLE_ENTRY_LEN: u64 = 32;
const MAX_NAME: usize = 8;

// Typed views reinterpret little-endian file bytes in place; a big-endian
// host would need byte-swapping copies this crate does not implement.
#[cfg(target_endian = "big")]
compile_error!("inspire-store's zero-copy views require a little-endian host");

// ---------------------------------------------------------------------------
// Section kinds
// ---------------------------------------------------------------------------

/// Element type of a section, recorded in the table so a reader can
/// validate a typed view request against what the writer stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// Raw bytes.
    Bytes = 1,
    /// Little-endian `u32` elements.
    U32 = 2,
    /// Little-endian `u64` elements.
    U64 = 3,
    /// Little-endian `i64` elements.
    I64 = 4,
    /// Little-endian IEEE-754 `f64` elements.
    F64 = 5,
    /// UTF-8 text.
    Str = 6,
    /// Block-compressed varint stream (see [`codec`]); opaque bytes to
    /// the container, but tagged so readers know a raw-bytes view is
    /// *encoded* data, not a plain blob. Format version ≥ 2.
    Packed = 7,
    /// Skip-pointer entries (`u64`, [`codec::skip_entry`] layout) for a
    /// `Packed` section. Format version ≥ 2.
    Skip = 8,
    /// Scalar-quantized vector codes: fixed-width records of `u8`
    /// components, one record per vector. The record width is engine
    /// metadata, not container metadata, so readers validate it with
    /// [`SectionView::as_records`]. Format version ≥ 2.
    Quant = 9,
}

impl SectionKind {
    fn from_u32(v: u32) -> Option<SectionKind> {
        match v {
            1 => Some(SectionKind::Bytes),
            2 => Some(SectionKind::U32),
            3 => Some(SectionKind::U64),
            4 => Some(SectionKind::I64),
            5 => Some(SectionKind::F64),
            6 => Some(SectionKind::Str),
            7 => Some(SectionKind::Packed),
            8 => Some(SectionKind::Skip),
            9 => Some(SectionKind::Quant),
            _ => None,
        }
    }

    /// Element size in bytes (1 for `Bytes`/`Str`/`Packed`).
    pub fn elem_size(self) -> usize {
        match self {
            SectionKind::Bytes | SectionKind::Str | SectionKind::Packed | SectionKind::Quant => 1,
            SectionKind::U32 => 4,
            SectionKind::U64 | SectionKind::I64 | SectionKind::F64 | SectionKind::Skip => 8,
        }
    }

    /// Smallest format version whose readers understand this kind.
    pub fn min_version(self) -> u32 {
        match self {
            SectionKind::Packed | SectionKind::Skip | SectionKind::Quant => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SectionKind::Bytes => "bytes",
            SectionKind::U32 => "u32",
            SectionKind::U64 => "u64",
            SectionKind::I64 => "i64",
            SectionKind::F64 => "f64",
            SectionKind::Str => "str",
            SectionKind::Packed => "packed",
            SectionKind::Skip => "skip",
            SectionKind::Quant => "quant",
        };
        f.write_str(s)
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Padded on-disk extent of a payload of `len` bytes (length prefix +
/// payload, rounded up to the alignment).
fn extent(len: u64) -> u64 {
    (8 + len).div_ceil(ALIGN) * ALIGN
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Entry {
    name: [u8; MAX_NAME],
    offset: u64,
    len: u64,
    kind: SectionKind,
    crc: u32,
}

impl Entry {
    fn name_str(&self) -> &str {
        let end = self.name.iter().position(|&b| b == 0).unwrap_or(MAX_NAME);
        // Names are validated ASCII on both the write and read paths.
        std::str::from_utf8(&self.name[..end]).expect("section name is ASCII")
    }
}

/// Per-section byte counts reported by [`SnapshotWriter::finish`].
#[derive(Debug, Clone)]
pub struct SnapshotStats {
    /// Total file size in bytes, including header, padding, and table.
    pub total_bytes: u64,
    /// `(section name, payload bytes)` in write order.
    pub sections: Vec<(String, u64)>,
}

/// Streams checksummed sections into the handle it is given — the
/// buffered file [`publish_atomic`] hands its closure, or any in-memory
/// buffer. Sections are written as they are added;
/// [`SnapshotWriter::finish`] appends the section table and patches the
/// header. Bytes that were not `finish`ed have a zeroed header and are
/// rejected by [`Snapshot::open`], so an interrupted write can never be
/// mistaken for a snapshot.
pub struct SnapshotWriter<W: Write + Seek> {
    file: W,
    pos: u64,
    entries: Vec<Entry>,
}

impl<W: Write + Seek> SnapshotWriter<W> {
    /// Start a snapshot at the beginning of `file` by reserving the header.
    pub fn new(file: W) -> io::Result<SnapshotWriter<W>> {
        let mut w = SnapshotWriter {
            file,
            pos: 0,
            entries: Vec::new(),
        };
        w.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(w)
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn encode_name(name: &str) -> io::Result<[u8; MAX_NAME]> {
        let b = name.as_bytes();
        if b.is_empty() || b.len() > MAX_NAME {
            return Err(bad(format!(
                "section name `{name}` must be 1..={MAX_NAME} bytes"
            )));
        }
        if !b.iter().all(|&c| c.is_ascii_graphic()) {
            return Err(bad(format!(
                "section name `{name}` must be printable ASCII"
            )));
        }
        let mut out = [0u8; MAX_NAME];
        out[..b.len()].copy_from_slice(b);
        Ok(out)
    }

    /// Append one section. The payload is length-prefixed, padded to the
    /// 64-byte alignment, and CRC-checksummed over the padded extent.
    pub fn add_section(&mut self, name: &str, kind: SectionKind, payload: &[u8]) -> io::Result<()> {
        let name_bytes = Self::encode_name(name)?;
        if self.entries.iter().any(|e| e.name == name_bytes) {
            return Err(bad(format!("duplicate section name `{name}`")));
        }
        debug_assert_eq!(self.pos % ALIGN, 0, "sections start aligned");
        let offset = self.pos;
        let len = payload.len() as u64;
        let mut crc = Crc32::new();
        let prefix = len.to_le_bytes();
        crc.update(&prefix);
        self.write_all(&prefix)?;
        crc.update(payload);
        self.write_all(payload)?;
        let pad = (extent(len) - 8 - len) as usize;
        let zeros = [0u8; ALIGN as usize];
        crc.update(&zeros[..pad]);
        self.write_all(&zeros[..pad])?;
        self.entries.push(Entry {
            name: name_bytes,
            offset,
            len,
            kind,
            crc: crc.finish(),
        });
        Ok(())
    }

    /// Append a raw-bytes section.
    pub fn add_bytes(&mut self, name: &str, payload: &[u8]) -> io::Result<()> {
        self.add_section(name, SectionKind::Bytes, payload)
    }

    /// Append a UTF-8 text section.
    pub fn add_str(&mut self, name: &str, text: &str) -> io::Result<()> {
        self.add_section(name, SectionKind::Str, text.as_bytes())
    }

    /// Append a `u32` section.
    pub fn add_u32s(&mut self, name: &str, data: &[u32]) -> io::Result<()> {
        self.add_section(name, SectionKind::U32, &le_bytes(data, |v| v.to_le_bytes()))
    }

    /// Append a `u64` section.
    pub fn add_u64s(&mut self, name: &str, data: &[u64]) -> io::Result<()> {
        self.add_section(name, SectionKind::U64, &le_bytes(data, |v| v.to_le_bytes()))
    }

    /// Append an `i64` section.
    pub fn add_i64s(&mut self, name: &str, data: &[i64]) -> io::Result<()> {
        self.add_section(name, SectionKind::I64, &le_bytes(data, |v| v.to_le_bytes()))
    }

    /// Append an `f64` section.
    pub fn add_f64s(&mut self, name: &str, data: &[f64]) -> io::Result<()> {
        self.add_section(name, SectionKind::F64, &le_bytes(data, |v| v.to_le_bytes()))
    }

    /// Append a block-compressed ([`codec`]) byte stream.
    pub fn add_packed(&mut self, name: &str, payload: &[u8]) -> io::Result<()> {
        self.add_section(name, SectionKind::Packed, payload)
    }

    /// Append scalar-quantized vector codes: `records` fixed-width rows
    /// of `record` `u8` components each. Rejects payloads whose length
    /// is not `records * record`, so a malformed section can never be
    /// written in the first place.
    pub fn add_quant(
        &mut self,
        name: &str,
        payload: &[u8],
        records: usize,
        record: usize,
    ) -> io::Result<()> {
        if payload.len() != records.saturating_mul(record) {
            return Err(bad(format!(
                "quant section `{name}` has {} bytes, expected {records} records × {record} bytes",
                payload.len()
            )));
        }
        self.add_section(name, SectionKind::Quant, payload)
    }

    /// Append skip-pointer entries for a `Packed` section.
    pub fn add_skips(&mut self, name: &str, data: &[u64]) -> io::Result<()> {
        self.add_section(
            name,
            SectionKind::Skip,
            &le_bytes(data, |v| v.to_le_bytes()),
        )
    }

    /// Write the section table, patch the header, and flush.
    pub fn finish(mut self) -> io::Result<SnapshotStats> {
        let table_offset = self.pos;
        debug_assert_eq!(table_offset % ALIGN, 0);
        let mut table = Vec::with_capacity(self.entries.len() * TABLE_ENTRY_LEN as usize);
        for e in &self.entries {
            table.extend_from_slice(&e.name);
            table.extend_from_slice(&e.offset.to_le_bytes());
            table.extend_from_slice(&e.len.to_le_bytes());
            table.extend_from_slice(&(e.kind as u32).to_le_bytes());
            table.extend_from_slice(&e.crc.to_le_bytes());
        }
        let table_crc = crc32(&table);
        self.write_all(&table.clone())?;
        self.write_all(&table_crc.to_le_bytes())?;
        let total = self.pos;

        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        header[16..24].copy_from_slice(&table_offset.to_le_bytes());
        header[24..32].copy_from_slice(&total.to_le_bytes());
        let hcrc = crc32(&header[0..32]);
        header[32..36].copy_from_slice(&hcrc.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.flush()?;

        Ok(SnapshotStats {
            total_bytes: total,
            sections: self
                .entries
                .iter()
                .map(|e| (e.name_str().to_string(), e.len))
                .collect(),
        })
    }
}

fn le_bytes<T: Copy, const N: usize>(data: &[T], f: impl Fn(T) -> [u8; N]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * N);
    for &v in data {
        out.extend_from_slice(&f(v));
    }
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A validated, loaded snapshot. Every checksum is verified at open time;
/// section accessors hand out zero-copy views over the loaded bytes.
pub struct Snapshot {
    /// 8-byte-aligned backing buffer holding the whole file.
    buf: Vec<u64>,
    /// File length in bytes (the buffer may be padded past it).
    len: usize,
    entries: Vec<Entry>,
    version: u32,
    source: String,
}

impl Snapshot {
    /// Open and fully validate a snapshot file.
    pub fn open(path: &Path) -> io::Result<Snapshot> {
        Self::read_file(std::fs::File::open(path)?, path)
    }

    /// Read and fully validate a snapshot from a file already opened at
    /// `path` (which names the source in error messages). Callers that
    /// key a cache by the identity of the file the bytes came from
    /// `fstat` the handle, then hand it here.
    pub fn read_file(mut f: std::fs::File, path: &Path) -> io::Result<Snapshot> {
        let file_len = f.metadata()?.len() as usize;
        let mut buf = vec![0u64; file_len.div_ceil(8)];
        f.read_exact(&mut as_bytes_mut(&mut buf)[..file_len])?;
        if f.read(&mut [0u8; 1])? != 0 {
            return Err(bad(format!("{}: file grew while reading", path.display())));
        }
        Self::validate(buf, file_len, path.display().to_string())
    }

    /// Validate a snapshot already held in memory (the bytes of a whole
    /// file); `label` names the source in error messages.
    pub fn from_bytes(bytes: &[u8], label: &str) -> io::Result<Snapshot> {
        let mut buf = vec![0u64; bytes.len().div_ceil(8)];
        as_bytes_mut(&mut buf)[..bytes.len()].copy_from_slice(bytes);
        Self::validate(buf, bytes.len(), label.to_string())
    }

    fn validate(buf: Vec<u64>, len: usize, source: String) -> io::Result<Snapshot> {
        let whole = &as_bytes(&buf)[..len];
        let e = |msg: String| bad(format!("{source}: {msg}"));
        if len < HEADER_LEN as usize {
            return Err(e(format!("truncated header ({len} bytes)")));
        }
        if &whole[0..8] != MAGIC {
            return Err(e("not a snapshot container (bad magic)".into()));
        }
        let version = u32::from_le_bytes(whole[8..12].try_into().unwrap());
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(e(format!(
                "unsupported format version {version} \
                 (reader understands {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
            )));
        }
        let stored_hcrc = u32::from_le_bytes(whole[32..36].try_into().unwrap());
        if crc32(&whole[0..32]) != stored_hcrc {
            return Err(e("header checksum mismatch".into()));
        }
        if whole[36..64].iter().any(|&b| b != 0) {
            return Err(e("reserved header bytes are not zero".into()));
        }
        let count = u32::from_le_bytes(whole[12..16].try_into().unwrap()) as u64;
        let table_offset = u64::from_le_bytes(whole[16..24].try_into().unwrap());
        let total = u64::from_le_bytes(whole[24..32].try_into().unwrap());
        if total != len as u64 {
            return Err(e(format!(
                "size mismatch: header says {total} bytes, file has {len} (truncated or extended)"
            )));
        }
        if table_offset % ALIGN != 0 {
            return Err(e(format!("section table offset {table_offset} unaligned")));
        }
        let table_len = count
            .checked_mul(TABLE_ENTRY_LEN)
            .ok_or_else(|| e("section count overflow".into()))?;
        let table_end = table_offset
            .checked_add(table_len)
            .and_then(|v| v.checked_add(4))
            .ok_or_else(|| e("section table extends past u64".into()))?;
        if table_end != len as u64 {
            return Err(e(format!(
                "section table at {table_offset}+{table_len} does not end the file"
            )));
        }
        let table = &whole[table_offset as usize..(table_offset + table_len) as usize];
        let stored_tcrc = u32::from_le_bytes(whole[(table_end - 4) as usize..].try_into().unwrap());
        if crc32(table) != stored_tcrc {
            return Err(e("section table checksum mismatch".into()));
        }

        let mut entries = Vec::with_capacity(count as usize);
        let mut expect_offset = HEADER_LEN;
        for i in 0..count as usize {
            let row = &table[i * TABLE_ENTRY_LEN as usize..(i + 1) * TABLE_ENTRY_LEN as usize];
            let mut name = [0u8; MAX_NAME];
            name.copy_from_slice(&row[0..8]);
            let name_end = name.iter().position(|&b| b == 0).unwrap_or(MAX_NAME);
            if name_end == 0
                || !name[..name_end].iter().all(|&c| c.is_ascii_graphic())
                || name[name_end..].iter().any(|&b| b != 0)
            {
                return Err(e(format!("section {i}: malformed name")));
            }
            // Name every later complaint: with a base snapshot plus N
            // ingest segments open at once, "section 3" alone does not
            // say which list of which file went bad.
            let label = String::from_utf8_lossy(&name[..name_end]).into_owned();
            let offset = u64::from_le_bytes(row[8..16].try_into().unwrap());
            let slen = u64::from_le_bytes(row[16..24].try_into().unwrap());
            let kind =
                SectionKind::from_u32(u32::from_le_bytes(row[24..28].try_into().unwrap()))
                    .ok_or_else(|| e(format!("section {i} (`{label}`): unknown element kind")))?;
            if kind.min_version() > version {
                return Err(e(format!(
                    "section {i} (`{label}`): {kind} elements need format version {}, file says {version}",
                    kind.min_version()
                )));
            }
            let crc = u32::from_le_bytes(row[28..32].try_into().unwrap());
            if offset != expect_offset {
                return Err(e(format!(
                    "section {i} (`{label}`) at offset {offset}, expected {expect_offset} (sections must be contiguous)"
                )));
            }
            let ext = extent(slen);
            if offset + ext > table_offset {
                return Err(e(format!(
                    "section {i} (`{label}`) extent [{offset}, {}) overlaps the table",
                    offset + ext
                )));
            }
            let body = &whole[offset as usize..(offset + ext) as usize];
            if crc32(body) != crc {
                return Err(e(format!(
                    "section `{}` checksum mismatch at offset {offset}",
                    String::from_utf8_lossy(&name[..name_end])
                )));
            }
            let prefixed = u64::from_le_bytes(body[0..8].try_into().unwrap());
            if prefixed != slen {
                return Err(e(format!(
                    "section {i} (`{label}`): length prefix {prefixed} disagrees with table length {slen}"
                )));
            }
            if slen % kind.elem_size() as u64 != 0 {
                return Err(e(format!(
                    "section {i} (`{label}`): {slen} bytes is not a multiple of the {kind} element size"
                )));
            }
            if entries.iter().any(|p: &Entry| p.name == name) {
                return Err(e(format!("duplicate section name `{label}` at entry {i}")));
            }
            entries.push(Entry {
                name,
                offset,
                len: slen,
                kind,
                crc,
            });
            expect_offset = offset + ext;
        }
        if expect_offset != table_offset {
            return Err(e(format!(
                "gap between last section end {expect_offset} and table offset {table_offset}"
            )));
        }
        Ok(Snapshot {
            buf,
            len,
            entries,
            version,
            source,
        })
    }

    /// The container format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Path or label the snapshot was loaded from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// `(name, kind, payload bytes)` of every section, in file order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, SectionKind, u64)> + '_ {
        self.entries.iter().map(|e| (e.name_str(), e.kind, e.len))
    }

    /// Whether a section exists.
    pub fn has(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name_str() == name)
    }

    /// A view over the named section, if present.
    pub fn section(&self, name: &str) -> Option<SectionView<'_>> {
        let e = self.entries.iter().find(|e| e.name_str() == name)?;
        let start = e.offset as usize + 8;
        Some(SectionView {
            name: e.name_str().to_string(),
            kind: e.kind,
            bytes: &as_bytes(&self.buf)[start..start + e.len as usize],
            source: &self.source,
        })
    }

    /// A view over the named section, or an error naming the source.
    pub fn require(&self, name: &str) -> io::Result<SectionView<'_>> {
        self.section(name)
            .ok_or_else(|| bad(format!("{}: missing section `{name}`", self.source)))
    }

    /// Total file size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.len as u64
    }
}

/// A zero-copy view of one section's payload.
pub struct SectionView<'a> {
    name: String,
    kind: SectionKind,
    bytes: &'a [u8],
    source: &'a str,
}

impl<'a> SectionView<'a> {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn kind(&self) -> SectionKind {
        self.kind
    }

    /// The raw payload bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    fn expect_kind(&self, want: SectionKind) -> io::Result<()> {
        if self.kind != want {
            return Err(bad(format!(
                "{}: section `{}` holds {} elements, requested {want}",
                self.source, self.name, self.kind
            )));
        }
        Ok(())
    }

    /// Reinterpret the payload as `T` elements. Sound for the plain-old-
    /// data element types this module stores (`u32`/`u64`/`i64`/`f64`):
    /// every bit pattern is a valid value, and payloads start 8 bytes
    /// past a 64-byte boundary of an 8-byte-aligned buffer, so `align_to`
    /// never produces a prefix or suffix.
    fn typed<T>(&self, want: SectionKind) -> io::Result<&'a [T]> {
        self.expect_kind(want)?;
        // SAFETY: T is restricted by the callers to POD integer/float
        // types for which any bit pattern is valid; alignment is
        // guaranteed by the container layout (checked below).
        let (prefix, mid, suffix) = unsafe { self.bytes.align_to::<T>() };
        if !prefix.is_empty() || !suffix.is_empty() {
            return Err(bad(format!(
                "{}: section `{}` is not aligned for {want} elements",
                self.source, self.name
            )));
        }
        Ok(mid)
    }

    /// The payload as little-endian `u32` elements.
    pub fn as_u32s(&self) -> io::Result<&'a [u32]> {
        self.typed::<u32>(SectionKind::U32)
    }

    /// The payload as little-endian `u64` elements.
    pub fn as_u64s(&self) -> io::Result<&'a [u64]> {
        self.typed::<u64>(SectionKind::U64)
    }

    /// The payload as little-endian `i64` elements.
    pub fn as_i64s(&self) -> io::Result<&'a [i64]> {
        self.typed::<i64>(SectionKind::I64)
    }

    /// The payload as little-endian `f64` elements.
    pub fn as_f64s(&self) -> io::Result<&'a [f64]> {
        self.typed::<f64>(SectionKind::F64)
    }

    /// The payload of a block-compressed section (decode via [`codec`]).
    pub fn as_packed(&self) -> io::Result<&'a [u8]> {
        self.expect_kind(SectionKind::Packed)?;
        Ok(self.bytes)
    }

    /// The payload as skip-pointer entries ([`codec::skip_entry`] layout).
    pub fn as_skips(&self) -> io::Result<&'a [u64]> {
        self.typed::<u64>(SectionKind::Skip)
    }

    /// The payload of a quantized-vector section as fixed-width records
    /// of `record` bytes each. A length that is not a whole number of
    /// records is a corrupt or truncated section and is rejected here,
    /// by name, instead of panicking on a short slice downstream.
    pub fn as_records(&self, record: usize) -> io::Result<&'a [u8]> {
        self.expect_kind(SectionKind::Quant)?;
        if record == 0 {
            return Err(bad(format!(
                "{}: section `{}` record size must be nonzero",
                self.source, self.name
            )));
        }
        if !self.bytes.len().is_multiple_of(record) {
            return Err(bad(format!(
                "{}: quant section `{}` has {} bytes, not a multiple of the {record}-byte per-doc record size",
                self.source,
                self.name,
                self.bytes.len()
            )));
        }
        Ok(self.bytes)
    }

    /// The payload as UTF-8 text.
    pub fn as_str(&self) -> io::Result<&'a str> {
        self.expect_kind(SectionKind::Str)?;
        std::str::from_utf8(self.bytes).map_err(|e| {
            bad(format!(
                "{}: section `{}` is not UTF-8 at byte {}",
                self.source,
                self.name,
                e.valid_up_to()
            ))
        })
    }
}

fn as_bytes(buf: &[u64]) -> &[u8] {
    // SAFETY: u8 has no alignment requirement and any byte is valid.
    unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, buf.len() * 8) }
}

fn as_bytes_mut(buf: &mut [u64]) -> &mut [u8] {
    // SAFETY: as above, and the borrow is exclusive.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, buf.len() * 8) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("inspire-store-test-{}-{name}", std::process::id()));
        p
    }

    type FileWriter<'a> = SnapshotWriter<&'a mut io::BufWriter<std::fs::File>>;

    /// Publish a snapshot at `path` holding the sections `add` writes.
    fn write_file(
        path: &Path,
        add: impl FnOnce(&mut FileWriter) -> io::Result<()>,
    ) -> SnapshotStats {
        publish_atomic(path, |f| {
            let mut w = SnapshotWriter::new(f)?;
            add(&mut w)?;
            w.finish()
        })
        .unwrap()
    }

    fn sample(path: &Path) -> SnapshotStats {
        write_file(path, |w| {
            w.add_u32s("ids", &[1, 2, 3, 0xFFFF_FFFF])?;
            w.add_f64s("vals", &[0.5, -1.25, f64::MAX, 0.0])?;
            w.add_u64s("big", &[u64::MAX, 7])?;
            w.add_i64s("off", &[-1, 0, i64::MAX])?;
            w.add_bytes("blob", b"arbitrary \x00 bytes")?;
            w.add_str("text", "hello snapshot")?;
            w.add_bytes("empty", b"")
        })
    }

    #[test]
    fn roundtrip_all_kinds() {
        let path = tmp("roundtrip.snap");
        let stats = sample(&path);
        assert_eq!(stats.sections.len(), 7);
        let s = Snapshot::open(&path).unwrap();
        assert_eq!(s.version(), FORMAT_VERSION);
        assert_eq!(
            s.require("ids").unwrap().as_u32s().unwrap(),
            &[1, 2, 3, 0xFFFF_FFFF]
        );
        assert_eq!(
            s.require("vals").unwrap().as_f64s().unwrap(),
            &[0.5, -1.25, f64::MAX, 0.0]
        );
        assert_eq!(s.require("big").unwrap().as_u64s().unwrap(), &[u64::MAX, 7]);
        assert_eq!(
            s.require("off").unwrap().as_i64s().unwrap(),
            &[-1, 0, i64::MAX]
        );
        assert_eq!(s.require("blob").unwrap().bytes(), b"arbitrary \x00 bytes");
        assert_eq!(
            s.require("text").unwrap().as_str().unwrap(),
            "hello snapshot"
        );
        assert_eq!(s.require("empty").unwrap().bytes(), b"");
        assert!(!s.has("nope"));
        assert!(s.require("nope").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_bytes_matches_open() {
        let path = tmp("frombytes.snap");
        sample(&path);
        let bytes = std::fs::read(&path).unwrap();
        let s = Snapshot::from_bytes(&bytes, "mem").unwrap();
        assert_eq!(s.require("big").unwrap().as_u64s().unwrap(), &[u64::MAX, 7]);
        assert_eq!(s.source(), "mem");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let path = tmp("kind.snap");
        sample(&path);
        let s = Snapshot::open(&path).unwrap();
        assert!(s.require("ids").unwrap().as_f64s().is_err());
        assert!(s.require("vals").unwrap().as_u32s().is_err());
        assert!(s.require("blob").unwrap().as_str().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_bad_names() {
        let mut w = SnapshotWriter::new(io::Cursor::new(Vec::new())).unwrap();
        assert!(w.add_bytes("", b"x").is_err());
        assert!(w.add_bytes("waytoolong", b"x").is_err());
        assert!(w.add_bytes("has space", b"x").is_err());
        w.add_bytes("ok", b"x").unwrap();
        assert!(w.add_bytes("ok", b"y").is_err(), "duplicate must fail");
        w.finish().unwrap();
    }

    #[test]
    fn unfinished_file_is_rejected() {
        let mut out = io::Cursor::new(Vec::new());
        {
            let mut w = SnapshotWriter::new(&mut out).unwrap();
            w.add_u32s("ids", &[1, 2, 3]).unwrap();
            // Dropped without finish(): header stays zeroed.
        }
        assert!(Snapshot::from_bytes(out.get_ref(), "unfinished").is_err());
    }

    #[test]
    fn garbage_and_empty_rejected() {
        let path = tmp("garbage.snap");
        std::fs::write(&path, b"this is not a snapshot at all").unwrap();
        assert!(Snapshot::open(&path).is_err());
        std::fs::write(&path, b"").unwrap();
        assert!(Snapshot::open(&path).is_err());
        std::fs::remove_file(&path).ok();
        assert!(Snapshot::from_bytes(&[], "empty").is_err());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let path = tmp("trunc.snap");
        sample(&path);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            assert!(
                Snapshot::from_bytes(&full[..cut], "cut").is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let path = tmp("trail.snap");
        sample(&path);
        let mut full = std::fs::read(&path).unwrap();
        full.push(0);
        assert!(Snapshot::from_bytes(&full, "ext").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sample_bit_flips_are_rejected() {
        let path = tmp("flip.snap");
        sample(&path);
        let full = std::fs::read(&path).unwrap();
        // The exhaustive sweep lives in the workspace proptest suite;
        // here, hit every region: header, magic, payload, padding, table.
        for &pos in &[0usize, 9, 70, 100, full.len() - 5, full.len() - 40] {
            for bit in 0..8 {
                let mut corrupt = full.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&corrupt, "flip").is_err(),
                    "bit {bit} of byte {pos} accepted"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let path = tmp("empty.snap");
        let stats = write_file(&path, |_| Ok(()));
        assert_eq!(stats.sections.len(), 0);
        let s = Snapshot::open(&path).unwrap();
        assert_eq!(s.sections().count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn packed_and_skip_sections_roundtrip() {
        let path = tmp("packed.snap");
        let pairs: Vec<(u32, u32)> = (0..300).map(|i| (i * 3, i % 7)).collect();
        let mut blob = Vec::new();
        let mut skips = Vec::new();
        codec::encode_list(&pairs, &mut blob, &mut skips);
        write_file(&path, |w| {
            w.add_packed("plist", &blob)?;
            w.add_skips("pskip", &skips)
        });

        let s = Snapshot::open(&path).unwrap();
        assert_eq!(s.version(), FORMAT_VERSION);
        let view = s.require("plist").unwrap();
        assert_eq!(view.kind(), SectionKind::Packed);
        assert_eq!(view.as_packed().unwrap(), &blob[..]);
        assert!(view.as_u32s().is_err(), "packed is not a u32 view");
        let sv = s.require("pskip").unwrap();
        assert_eq!(sv.as_skips().unwrap(), &skips[..]);
        assert!(sv.as_u64s().is_err(), "skip is not a plain u64 view");
        let mut got = Vec::new();
        codec::decode_list(view.as_packed().unwrap(), pairs.len(), &mut got).unwrap();
        assert_eq!(got, pairs);
        std::fs::remove_file(&path).ok();
    }

    /// Rewrite a finished file's header version field (recomputing the
    /// header CRC), mimicking files written by other format versions.
    fn with_version(path: &Path, version: u32) -> Vec<u8> {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let hcrc = crc32(&bytes[0..32]);
        bytes[32..36].copy_from_slice(&hcrc.to_le_bytes());
        bytes
    }

    #[test]
    fn version_range_is_enforced() {
        let path = tmp("versions.snap");
        sample(&path); // legacy kinds only — valid under either version
        let v1 = with_version(&path, 1);
        let s = Snapshot::from_bytes(&v1, "v1").unwrap();
        assert_eq!(s.version(), 1);
        assert_eq!(
            s.require("ids").unwrap().as_u32s().unwrap(),
            &[1, 2, 3, 0xFFFF_FFFF]
        );
        assert!(Snapshot::from_bytes(&with_version(&path, 0), "v0").is_err());
        assert!(
            Snapshot::from_bytes(&with_version(&path, FORMAT_VERSION + 1), "vN").is_err(),
            "future versions must be rejected, not guessed at"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_file_with_v2_kinds_is_rejected() {
        let path = tmp("v1kinds.snap");
        write_file(&path, |w| w.add_packed("plist", &[0, 1, 2]));
        // Claiming version 1 while carrying a Packed section is malformed.
        assert!(Snapshot::from_bytes(&with_version(&path, 1), "v1bad").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quant_sections_roundtrip_and_validate_record_size() {
        let path = tmp("quant.snap");
        let codes: Vec<u8> = (0..5 * 7).map(|i| (i * 11 % 251) as u8).collect();
        write_file(&path, |w| {
            w.add_quant("qsig", &codes, 5, 7)?;
            assert!(
                w.add_quant("qbad", &codes, 5, 8).is_err(),
                "writer must reject a payload that is not records × record bytes"
            );
            Ok(())
        });

        let s = Snapshot::open(&path).unwrap();
        let view = s.require("qsig").unwrap();
        assert_eq!(view.kind(), SectionKind::Quant);
        assert_eq!(view.as_records(7).unwrap(), &codes[..]);
        assert!(view.as_u32s().is_err(), "quant is not a u32 view");
        // A reader expecting a different per-doc record size gets a
        // descriptive error naming the section, not a panic downstream.
        let err = view.as_records(8).unwrap_err().to_string();
        assert!(err.contains("qsig") && err.contains("8-byte"), "{err}");
        assert!(view.as_records(0).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_file_with_quant_kind_is_rejected() {
        let path = tmp("v1quant.snap");
        write_file(&path, |w| w.add_quant("qsig", &[1, 2, 3, 4], 2, 2));
        assert!(Snapshot::from_bytes(&with_version(&path, 1), "v1q").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_report_payload_bytes() {
        let path = tmp("stats.snap");
        let stats = sample(&path);
        let ids = stats.sections.iter().find(|(n, _)| n == "ids").unwrap();
        assert_eq!(ids.1, 16);
        let s = Snapshot::open(&path).unwrap();
        assert_eq!(s.total_bytes(), stats.total_bytes);
        std::fs::remove_file(&path).ok();
    }
}
