//! The `.unfb` model bundle: one file, every model.
//!
//! UNFOLD deploys as "tens of megabytes instead of a gigabyte" (§5.3);
//! operationally that should be *one artifact*, not a scatter of
//! per-model files that can drift apart. A bundle is the only on-disk
//! form of the compressed models: a single
//! versioned container holding a compressed AM, one or more *named*
//! compressed LMs (the multi-LM serving workload of Liu et al.'s
//! personalized-LM decoder), optional symbol tables, and metadata:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "UNFB"
//! 4       4     version (LE u32, currently 2)
//! 8       4     section count
//! 12      4     section-table length in bytes
//! 16      ...   section table: per section
//!                 kind u32 · name-len u32 · name (UTF-8)
//!                 offset u64 · length u64 · CRC-64 u64
//! ..      8     CRC-64 of everything above (header + table)
//! ..      ...   payloads, 8-byte aligned, non-overlapping
//! ```
//!
//! Offsets are absolute file offsets, so a section can be handed to a
//! parser as a plain byte slice of the mapped file. Payload CRCs
//! (CRC-64/ECMA) make corruption a *typed error* instead of a decode
//! anomaly: [`Bundle::open`] verifies every section eagerly; the
//! mmap-backed [`Bundle::open_mmap`] verifies the header and table
//! eagerly (cheap) and each payload lazily — once, memoized, the
//! first time the section is accessed through [`Bundle::section_bytes`]
//! or bound to a model ([`CompressedAm::from_bundle`] /
//! [`CompressedLm::from_bundle`]). Opening a mapped bundle therefore
//! never copies or hashes the arc bit streams; *binding* a model
//! streams one CRC pass over its (mapped, page-cache backed) section
//! and then one structural walk over its arcs, both memoized per
//! section, so every later infallible decode reads verified,
//! well-formed bytes. A checksum is only as good as its producer: the
//! walk is what turns a packer bug or a hostile file sealed with valid
//! CRCs into a typed [`BundleError::Model`] instead of a mid-decode
//! panic.

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::am::{AmLayout, CompressedAm};
use crate::io::{ByteReader, ByteWriter, ModelIoError};
use crate::lm::{CompressedLm, LmLayout};
use crate::mmap::Mapped;

/// Magic bytes of a `.unfb` bundle.
pub const BUNDLE_MAGIC: [u8; 4] = *b"UNFB";
/// Bundle container version. Version 2 carries version-2 model
/// sections ([`crate::io::FORMAT_VERSION`]); a version-1 bundle is refused
/// with [`BundleError::BadVersion`].
pub const BUNDLE_VERSION: u32 = 2;
/// Hard cap on section count (a hostile header must not drive huge
/// allocations).
const MAX_SECTIONS: usize = 4096;
/// Fixed header bytes before the section table.
const HEADER_BYTES: usize = 16;

/// What a bundle section holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// A serialized compressed AM (`UNFA`). Exactly one per bundle.
    Am,
    /// A serialized compressed LM (`UNFL`). One or more, uniquely named.
    Lm,
    /// A symbol table (word id → spelling), newline-separated.
    SymTab,
    /// Free-form metadata bytes.
    Meta,
    /// A serialized biasing model (phrase list; see `unfold-bias`).
    /// Zero or more, uniquely named.
    Bias,
}

impl SectionKind {
    fn code(self) -> u32 {
        match self {
            SectionKind::Am => 1,
            SectionKind::Lm => 2,
            SectionKind::SymTab => 3,
            SectionKind::Meta => 4,
            SectionKind::Bias => 5,
        }
    }

    fn from_code(code: u32) -> Option<SectionKind> {
        match code {
            1 => Some(SectionKind::Am),
            2 => Some(SectionKind::Lm),
            3 => Some(SectionKind::SymTab),
            4 => Some(SectionKind::Meta),
            5 => Some(SectionKind::Bias),
            _ => None,
        }
    }

    /// Human-readable kind tag (`inspect` output).
    pub fn tag(self) -> &'static str {
        match self {
            SectionKind::Am => "am",
            SectionKind::Lm => "lm",
            SectionKind::SymTab => "symtab",
            SectionKind::Meta => "meta",
            SectionKind::Bias => "bias",
        }
    }
}

/// One entry of a bundle's section table.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section kind.
    pub kind: SectionKind,
    /// Section name (unique per kind).
    pub name: String,
    /// Absolute payload offset in the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// CRC-64 of the payload.
    pub crc: u64,
}

/// Errors from writing, opening, or reading a bundle.
#[derive(Debug)]
pub enum BundleError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u32),
    /// The file ended before the declared content.
    Truncated,
    /// Structurally invalid header or section table.
    Corrupt(&'static str),
    /// A stored checksum did not match the bytes (section name, or
    /// `"table"` for the header checksum).
    ChecksumMismatch(String),
    /// A required section is absent.
    MissingSection(String),
    /// Two sections of one kind share a name.
    DuplicateSection(String),
    /// A model section failed to parse.
    Model {
        /// Offending section name.
        section: String,
        /// The model-level error.
        err: ModelIoError,
    },
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle I/O: {e}"),
            BundleError::BadMagic => write!(f, "not a .unfb bundle (bad magic)"),
            BundleError::BadVersion(v) => write!(f, "unsupported bundle version {v}"),
            BundleError::Truncated => write!(f, "bundle truncated"),
            BundleError::Corrupt(what) => write!(f, "corrupt bundle: {what}"),
            BundleError::ChecksumMismatch(name) => {
                write!(f, "checksum mismatch in section '{name}'")
            }
            BundleError::MissingSection(name) => write!(f, "bundle has no section '{name}'"),
            BundleError::DuplicateSection(name) => {
                write!(f, "duplicate bundle section '{name}'")
            }
            BundleError::Model { section, err } => {
                write!(f, "model section '{section}' invalid: {err}")
            }
        }
    }
}

impl std::error::Error for BundleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BundleError::Io(e) => Some(e),
            BundleError::Model { err, .. } => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> Self {
        BundleError::Io(e)
    }
}

/// CRC-64/ECMA (reflected, `!0` init and final xor) over `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u64; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *e = crc;
        }
        t
    });
    let mut crc = !0u64;
    for &b in bytes {
        crc = table[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Assembles a `.unfb` bundle.
#[derive(Default)]
pub struct BundleWriter {
    sections: Vec<(SectionKind, String, Vec<u8>)>,
}

impl BundleWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the bundle's AM (exactly one; named `"am"`).
    pub fn add_am(&mut self, am: &CompressedAm) -> &mut Self {
        self.sections
            .push((SectionKind::Am, "am".to_string(), am.to_bytes()));
        self
    }

    /// Adds a named LM.
    pub fn add_lm(&mut self, name: &str, lm: &CompressedLm) -> &mut Self {
        self.sections
            .push((SectionKind::Lm, name.to_string(), lm.to_bytes()));
        self
    }

    /// Adds a symbol table.
    pub fn add_symtab(&mut self, name: &str, bytes: Vec<u8>) -> &mut Self {
        self.sections
            .push((SectionKind::SymTab, name.to_string(), bytes));
        self
    }

    /// Adds a metadata section.
    pub fn add_meta(&mut self, name: &str, bytes: Vec<u8>) -> &mut Self {
        self.sections
            .push((SectionKind::Meta, name.to_string(), bytes));
        self
    }

    /// Adds a named biasing model (serialized phrase list; the crate
    /// boundary keeps this raw bytes — `unfold-bias` sits above the
    /// compression layer).
    pub fn add_bias(&mut self, name: &str, bytes: Vec<u8>) -> &mut Self {
        self.sections
            .push((SectionKind::Bias, name.to_string(), bytes));
        self
    }

    /// Serializes the bundle.
    ///
    /// # Errors
    /// [`BundleError::MissingSection`] unless exactly one AM and at
    /// least one LM were added; [`BundleError::DuplicateSection`] on
    /// name collisions within a kind; [`BundleError::Corrupt`] on
    /// over-long names.
    pub fn finish(&self) -> Result<Vec<u8>, BundleError> {
        let am_count = self
            .sections
            .iter()
            .filter(|(k, _, _)| *k == SectionKind::Am)
            .count();
        if am_count != 1 {
            return Err(BundleError::MissingSection("am".into()));
        }
        if !self.sections.iter().any(|(k, _, _)| *k == SectionKind::Lm) {
            return Err(BundleError::MissingSection("lm".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for (kind, name, _) in &self.sections {
            if name.len() > 255 {
                return Err(BundleError::Corrupt("section name too long"));
            }
            if !seen.insert((kind.code(), name.as_str())) {
                return Err(BundleError::DuplicateSection(name.clone()));
            }
        }

        // Lay the table out first to learn payload offsets.
        let mut table_len = 0usize;
        for (_, name, _) in &self.sections {
            table_len += 4 + 4 + name.len() + 8 + 8 + 8;
        }
        let data_start = HEADER_BYTES + table_len + 8; // + table CRC
        let mut offsets = Vec::with_capacity(self.sections.len());
        let mut cursor = data_start;
        for (_, _, bytes) in &self.sections {
            cursor = cursor.div_ceil(8) * 8;
            offsets.push(cursor);
            cursor += bytes.len();
        }

        let mut w = ByteWriter::default();
        w.out.extend_from_slice(&BUNDLE_MAGIC);
        w.u32(BUNDLE_VERSION);
        w.u32(self.sections.len() as u32);
        w.u32(table_len as u32);
        for ((kind, name, bytes), &offset) in self.sections.iter().zip(&offsets) {
            w.u32(kind.code());
            w.u32(name.len() as u32);
            w.out.extend_from_slice(name.as_bytes());
            w.u64(offset as u64);
            w.u64(bytes.len() as u64);
            w.u64(crc64(bytes));
        }
        debug_assert_eq!(w.out.len(), HEADER_BYTES + table_len);
        let table_crc = crc64(&w.out);
        w.u64(table_crc);
        for ((_, _, bytes), &offset) in self.sections.iter().zip(&offsets) {
            w.out.resize(offset, 0);
            w.out.extend_from_slice(bytes);
        }
        Ok(w.out)
    }

    /// Serializes and writes the bundle to `path`.
    ///
    /// # Errors
    /// As [`BundleWriter::finish`], plus file I/O.
    pub fn write_to(&self, path: &Path) -> Result<(), BundleError> {
        let bytes = self.finish()?;
        std::fs::write(path, bytes)?;
        Ok(())
    }
}

enum BundleData {
    Owned(Vec<u8>),
    Mapped(Mapped),
}

/// An opened `.unfb` bundle: the bytes (owned or mapped) plus the
/// verified section table.
pub struct Bundle {
    data: BundleData,
    sections: Vec<SectionInfo>,
    /// Per-section payload-CRC verification memo (lazy on mmap opens).
    verified: Vec<AtomicBool>,
    /// Per-section structural-walk memo: the fact a passing walk
    /// records (the AM's largest PDF id, an LM's longest back-off
    /// chain), set the first time a model binds the section.
    walked: Vec<OnceLock<u32>>,
}

impl std::fmt::Debug for Bundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bundle")
            .field("bytes", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .field("sections", &self.sections)
            .finish()
    }
}

impl Bundle {
    /// Parses an in-memory bundle, eagerly verifying the table and
    /// every payload checksum.
    ///
    /// # Errors
    /// Any [`BundleError`] the container fails.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Bundle, BundleError> {
        let sections = parse_table(&bytes)?;
        let bundle = Bundle {
            verified: sections.iter().map(|_| AtomicBool::new(false)).collect(),
            walked: sections.iter().map(|_| OnceLock::new()).collect(),
            sections,
            data: BundleData::Owned(bytes),
        };
        bundle.verify_all()?;
        Ok(bundle)
    }

    /// Opens a bundle by reading the whole file into memory (eager
    /// checksum verification) — today's loading model.
    ///
    /// # Errors
    /// File I/O plus any [`BundleError`] the container fails.
    pub fn open(path: &Path) -> Result<Bundle, BundleError> {
        Bundle::from_bytes(std::fs::read(path)?)
    }

    /// Opens a bundle zero-copy: the file is mmap-ed (on Linux x86-64;
    /// read-fallback elsewhere), the header and section table are
    /// verified, and payload checksums are deferred to first section
    /// access ([`Bundle::section_bytes`], or binding a model with
    /// `from_bundle`). Never copies or touches the arc bit streams at
    /// open time.
    ///
    /// # Errors
    /// File I/O plus header/table-level [`BundleError`]s.
    pub fn open_mmap(path: &Path) -> Result<Bundle, BundleError> {
        let mapped = Mapped::open(path)?;
        let sections = parse_table(mapped.as_bytes())?;
        Ok(Bundle {
            verified: sections.iter().map(|_| AtomicBool::new(false)).collect(),
            walked: sections.iter().map(|_| OnceLock::new()).collect(),
            sections,
            data: BundleData::Mapped(mapped),
        })
    }

    /// The full file bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            BundleData::Owned(v) => v,
            BundleData::Mapped(m) => m.as_bytes(),
        }
    }

    /// Whether the bytes are a kernel memory mapping.
    pub fn is_mapped(&self) -> bool {
        match &self.data {
            BundleData::Owned(_) => false,
            BundleData::Mapped(m) => m.is_mapped(),
        }
    }

    /// The section table, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    fn index_of(&self, kind: SectionKind, name: &str) -> Option<usize> {
        self.sections
            .iter()
            .position(|s| s.kind == kind && s.name == name)
    }

    /// Payload bytes of section (`kind`, `name`), verifying its
    /// checksum on first access.
    ///
    /// # Errors
    /// [`BundleError::MissingSection`] or
    /// [`BundleError::ChecksumMismatch`].
    pub fn section_bytes(&self, kind: SectionKind, name: &str) -> Result<&[u8], BundleError> {
        Ok(&self.bytes()[self.verified_range(kind, name)?])
    }

    /// Byte range of section (`kind`, `name`) in [`Bundle::bytes`],
    /// verifying its checksum on first access.
    pub(crate) fn verified_range(
        &self,
        kind: SectionKind,
        name: &str,
    ) -> Result<Range<usize>, BundleError> {
        let idx = self
            .index_of(kind, name)
            .ok_or_else(|| BundleError::MissingSection(format!("{} '{name}'", kind.tag())))?;
        let info = &self.sections[idx];
        let range = info.offset..info.offset + info.len;
        if !self.verified[idx].load(Ordering::Relaxed) {
            if crc64(&self.bytes()[range.clone()]) != info.crc {
                return Err(BundleError::ChecksumMismatch(info.name.clone()));
            }
            self.verified[idx].store(true, Ordering::Relaxed);
        }
        Ok(range)
    }

    /// Runs `walk`, a model's structural walk, over the payload of
    /// section (`kind`, `name`) the first time a model binds it, and
    /// memoizes the fact it returns: a bundle is walked once however
    /// many models bind it. Callers pass the checksum first
    /// ([`Bundle::verified_range`]), so the section exists.
    ///
    /// # Errors
    /// [`BundleError::Model`] carrying the walk's error (not memoized).
    pub(crate) fn walked(
        &self,
        kind: SectionKind,
        name: &str,
        walk: impl FnOnce(&[u8]) -> Result<u32, ModelIoError>,
    ) -> Result<u32, BundleError> {
        let idx = self
            .index_of(kind, name)
            .expect("a verified section exists");
        if let Some(&fact) = self.walked[idx].get() {
            return Ok(fact);
        }
        let info = &self.sections[idx];
        let fact = walk(&self.bytes()[info.offset..info.offset + info.len]).map_err(|err| {
            BundleError::Model {
                section: name.into(),
                err,
            }
        })?;
        Ok(*self.walked[idx].get_or_init(|| fact))
    }

    /// Payload bytes *without* the checksum pass — for layout parsing
    /// only, which reads a section's fixed-size header (a total,
    /// fuzz-pinned parse that returns typed errors on any input). On
    /// owned opens every payload was already verified eagerly; on
    /// mapped opens this is exactly the path that must not fault in
    /// the arc bit streams. Anything that will *decode* the payload
    /// (`from_bundle`) verifies the checksum and walks the arcs first,
    /// so no decode path ever runs on unverified bytes.
    ///
    /// # Errors
    /// [`BundleError::MissingSection`].
    fn raw_section_bytes(&self, kind: SectionKind, name: &str) -> Result<&[u8], BundleError> {
        let info = self
            .index_of(kind, name)
            .map(|idx| &self.sections[idx])
            .ok_or_else(|| BundleError::MissingSection(format!("{} '{name}'", kind.tag())))?;
        Ok(&self.bytes()[info.offset..info.offset + info.len])
    }

    /// Verifies every payload checksum (eager opens; `inspect`).
    ///
    /// # Errors
    /// [`BundleError::ChecksumMismatch`] naming the first bad section.
    pub fn verify_all(&self) -> Result<(), BundleError> {
        for info in &self.sections {
            self.section_bytes(info.kind, &info.name)?;
        }
        Ok(())
    }

    /// Names of the LM sections, in file order; the first is the
    /// default model for sessions that do not pick one.
    pub fn lm_names(&self) -> Vec<&str> {
        self.sections
            .iter()
            .filter(|s| s.kind == SectionKind::Lm)
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Names of the biasing-model sections, in file order.
    pub fn bias_names(&self) -> Vec<&str> {
        self.sections
            .iter()
            .filter(|s| s.kind == SectionKind::Bias)
            .map(|s| s.name.as_str())
            .collect()
    }

    /// A named biasing-model payload (checksum-verified). The caller
    /// deserializes it with `unfold_bias::BiasingFst::from_bytes`.
    ///
    /// # Errors
    /// Missing section or checksum failures.
    pub fn bias_bytes(&self, name: &str) -> Result<&[u8], BundleError> {
        self.section_bytes(SectionKind::Bias, name)
    }

    /// Parses the AM section header. Reads only the header bytes — no
    /// arc-stream copy, and (on mapped bundles) no checksum pass or
    /// structural walk over the payload.
    ///
    /// # Errors
    /// Missing section or model-parse failures.
    pub fn am_layout(&self) -> Result<AmLayout, BundleError> {
        let bytes = self.raw_section_bytes(SectionKind::Am, "am")?;
        AmLayout::parse(bytes).map_err(|err| BundleError::Model {
            section: "am".into(),
            err,
        })
    }

    /// Parses a named LM section header; see [`Bundle::am_layout`].
    ///
    /// # Errors
    /// Missing section or model-parse failures.
    pub fn lm_layout(&self, name: &str) -> Result<LmLayout, BundleError> {
        let bytes = self.raw_section_bytes(SectionKind::Lm, name)?;
        LmLayout::parse(bytes).map_err(|err| BundleError::Model {
            section: name.into(),
            err,
        })
    }

    /// Metadata payload by name, if present (checksum-verified).
    ///
    /// # Errors
    /// [`BundleError::ChecksumMismatch`] if present but corrupt.
    pub fn meta(&self, name: &str) -> Result<Option<&[u8]>, BundleError> {
        if self.index_of(SectionKind::Meta, name).is_none() {
            return Ok(None);
        }
        self.section_bytes(SectionKind::Meta, name).map(Some)
    }

    /// Symbol-table payload by name, if present (checksum-verified).
    ///
    /// # Errors
    /// [`BundleError::ChecksumMismatch`] if present but corrupt.
    pub fn symtab(&self, name: &str) -> Result<Option<&[u8]>, BundleError> {
        if self.index_of(SectionKind::SymTab, name).is_none() {
            return Ok(None);
        }
        self.section_bytes(SectionKind::SymTab, name).map(Some)
    }
}

/// Parses and verifies the fixed header and section table.
fn parse_table(bytes: &[u8]) -> Result<Vec<SectionInfo>, BundleError> {
    if bytes.len() < HEADER_BYTES {
        return Err(BundleError::Truncated);
    }
    if bytes[..4] != BUNDLE_MAGIC {
        return Err(BundleError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != BUNDLE_VERSION {
        return Err(BundleError::BadVersion(version));
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if count == 0 || count > MAX_SECTIONS {
        return Err(BundleError::Corrupt("section count out of range"));
    }
    let table_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let data_start = HEADER_BYTES
        .checked_add(table_len)
        .and_then(|n| n.checked_add(8))
        .ok_or(BundleError::Truncated)?;
    if data_start > bytes.len() {
        return Err(BundleError::Truncated);
    }
    let stored_crc = u64::from_le_bytes(
        bytes[HEADER_BYTES + table_len..data_start]
            .try_into()
            .expect("8 bytes"),
    );
    if crc64(&bytes[..HEADER_BYTES + table_len]) != stored_crc {
        return Err(BundleError::ChecksumMismatch("table".into()));
    }

    let mut r = ByteReader::new(&bytes[HEADER_BYTES..HEADER_BYTES + table_len]);
    let mut sections = Vec::with_capacity(count);
    let mut am_count = 0usize;
    let mut lm_count = 0usize;
    let mut seen = std::collections::HashSet::new();
    for _ in 0..count {
        let (kind_code, name_len) = (table_field(r.u32())?, table_field(r.u32())? as usize);
        let kind = SectionKind::from_code(kind_code)
            .ok_or(BundleError::Corrupt("unknown section kind"))?;
        if name_len > 255 {
            return Err(BundleError::Corrupt("section name too long"));
        }
        let name = std::str::from_utf8(table_field(r.take(name_len))?)
            .map_err(|_| BundleError::Corrupt("section name not UTF-8"))?
            .to_string();
        let offset = table_field(r.u64())? as usize;
        let len_u64 = table_field(r.u64())?;
        let crc = table_field(r.u64())?;
        let len = usize::try_from(len_u64).map_err(|_| BundleError::Truncated)?;
        if offset < data_start || offset.checked_add(len).is_none_or(|end| end > bytes.len()) {
            return Err(BundleError::Truncated);
        }
        if !seen.insert((kind_code, name.clone())) {
            return Err(BundleError::DuplicateSection(name));
        }
        am_count += usize::from(kind == SectionKind::Am);
        lm_count += usize::from(kind == SectionKind::Lm);
        sections.push(SectionInfo {
            kind,
            name,
            offset,
            len,
            crc,
        });
    }
    if !r.done() {
        return Err(BundleError::Corrupt("section table has trailing bytes"));
    }
    if am_count != 1 {
        return Err(BundleError::MissingSection("am".into()));
    }
    if lm_count == 0 {
        return Err(BundleError::MissingSection("lm".into()));
    }
    // Payloads must not overlap (a crafted table must not alias one
    // byte range under two checksums).
    let mut ranges: Vec<(usize, usize)> = sections.iter().map(|s| (s.offset, s.len)).collect();
    ranges.sort_unstable();
    for w in ranges.windows(2) {
        if w[0].0 + w[0].1 > w[1].0 {
            return Err(BundleError::Corrupt("sections overlap"));
        }
    }
    Ok(sections)
}

/// Maps a table-cursor read error (always `Truncated` relative to the
/// declared table length) to a table-corruption error.
fn table_field<T>(r: Result<T, ModelIoError>) -> Result<T, BundleError> {
    r.map_err(|_| BundleError::Corrupt("section table truncated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use unfold_am::{build_am, HmmTopology, Lexicon};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};

    fn models() -> (CompressedAm, CompressedLm, CompressedLm) {
        let fst = build_am(&Lexicon::generate(60, 20, 3), HmmTopology::Kaldi3State).fst;
        let am = CompressedAm::compress(&fst, 64, 0);
        let mk_lm = |seed: u64| {
            let spec = CorpusSpec {
                vocab_size: 60,
                num_sentences: 200,
                ..Default::default()
            };
            let model = NGramModel::train(&spec.generate(seed), 60, DiscountConfig::default());
            CompressedLm::compress(&lm_to_wfst(&model), 64, seed)
        };
        (am, mk_lm(1), mk_lm(2))
    }

    fn bundle_bytes() -> Vec<u8> {
        let (am, lm_a, lm_b) = models();
        let mut w = BundleWriter::new();
        w.add_am(&am)
            .add_lm("default", &lm_a)
            .add_lm("alt", &lm_b)
            .add_symtab("words", b"1 hello\n2 world\n".to_vec())
            .add_meta("task", b"task=test vocab=60".to_vec());
        w.finish().unwrap()
    }

    #[test]
    fn bias_sections_round_trip() {
        let (am, lm, _) = models();
        let mut w = BundleWriter::new();
        let payload = vec![
            1u8, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 128, 63,
        ];
        w.add_am(&am)
            .add_lm("default", &lm)
            .add_bias("contacts", payload.clone())
            .add_bias("hotwords", vec![1, 0, 0, 0, 0, 0, 0, 0]);
        let b = Bundle::from_bytes(w.finish().unwrap()).unwrap();
        assert_eq!(b.bias_names(), vec!["contacts", "hotwords"]);
        assert_eq!(b.bias_bytes("contacts").unwrap(), payload.as_slice());
        assert!(b.bias_bytes("missing").is_err());
        let tags: Vec<_> = b.sections().iter().map(|s| s.kind.tag()).collect();
        assert!(tags.contains(&"bias"));
    }

    #[test]
    fn roundtrip_preserves_sections_and_models() {
        let bytes = bundle_bytes();
        let b = Bundle::from_bytes(bytes).unwrap();
        assert_eq!(b.sections().len(), 5);
        assert_eq!(b.lm_names(), vec!["default", "alt"]);
        assert!(!b.is_mapped());
        assert_eq!(b.meta("task").unwrap().unwrap(), b"task=test vocab=60");
        assert_eq!(b.symtab("words").unwrap().unwrap(), b"1 hello\n2 world\n");
        assert!(b.meta("absent").unwrap().is_none());
        // Bound models read back exactly the bytes that were packed.
        let (am, lm_a, _) = models();
        let b = Arc::new(b);
        let bound_am = CompressedAm::from_bundle(Arc::clone(&b)).unwrap();
        assert_eq!(bound_am.to_bytes(), am.to_bytes());
        assert_eq!(b.am_layout().unwrap().num_states(), am.num_states());
        let bound_lm = CompressedLm::from_bundle(Arc::clone(&b), "default").unwrap();
        assert_eq!(bound_lm.to_bytes(), lm_a.to_bytes());
        assert_eq!(
            b.lm_layout("default").unwrap().num_states(),
            lm_a.num_states()
        );
    }

    #[test]
    fn mmap_open_roundtrips_and_shares() {
        let bytes = bundle_bytes();
        let path = std::env::temp_dir().join(format!("unfold-bundle-{}.unfb", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let b = Arc::new(Bundle::open_mmap(&path).unwrap());
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(b.is_mapped());
        let am = CompressedAm::from_bundle(Arc::clone(&b)).unwrap();
        let lm = CompressedLm::from_bundle(Arc::clone(&b), "alt").unwrap();
        let (owned_am, _, owned_lm) = models();
        assert_eq!(am.decode_arcs(0), owned_am.decode_arcs(0));
        for s in (0..owned_lm.num_states() as u32).step_by(7) {
            assert_eq!(lm.backoff_arc(s), owned_lm.backoff_arc(s));
        }
        // The mapping outlives the bundle handle through the Arcs.
        drop(b);
        assert_eq!(lm.num_states(), owned_lm.num_states());
        assert_eq!(lm.to_bytes(), owned_lm.to_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shared_handles_reject_corrupt_payloads_on_mmap_opens() {
        // Flip one byte inside each model payload: open_mmap still
        // succeeds (table-only), but binding the model must fail with
        // the section's typed checksum error — the decode paths never
        // see unverified bytes.
        let bytes = bundle_bytes();
        let path =
            std::env::temp_dir().join(format!("unfold-bundle-corrupt-{}.unfb", std::process::id()));
        for kind in [SectionKind::Am, SectionKind::Lm] {
            let clean = Bundle::from_bytes(bytes.clone()).unwrap();
            let info = clean
                .sections()
                .iter()
                .find(|s| s.kind == kind)
                .unwrap()
                .clone();
            let mut bad = bytes.clone();
            bad[info.offset + info.len / 2] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            let b = Arc::new(Bundle::open_mmap(&path).unwrap());
            let err = match kind {
                SectionKind::Am => CompressedAm::from_bundle(Arc::clone(&b)).unwrap_err(),
                _ => CompressedLm::from_bundle(Arc::clone(&b), &info.name).unwrap_err(),
            };
            match err {
                BundleError::ChecksumMismatch(name) => assert_eq!(name, info.name),
                other => panic!("corrupt {} payload: {other:?}", kind.tag()),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_invalid_compositions() {
        let (am, lm, _) = models();
        assert!(matches!(
            BundleWriter::new().add_lm("x", &lm).finish(),
            Err(BundleError::MissingSection(_))
        ));
        assert!(matches!(
            BundleWriter::new().add_am(&am).finish(),
            Err(BundleError::MissingSection(_))
        ));
        assert!(matches!(
            BundleWriter::new()
                .add_am(&am)
                .add_lm("x", &lm)
                .add_lm("x", &lm)
                .finish(),
            Err(BundleError::DuplicateSection(_))
        ));
    }

    #[test]
    fn payloads_are_aligned() {
        let bytes = bundle_bytes();
        let b = Bundle::from_bytes(bytes).unwrap();
        for s in b.sections() {
            assert_eq!(s.offset % 8, 0, "section '{}' misaligned", s.name);
        }
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ ("ECMA") check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }
}
