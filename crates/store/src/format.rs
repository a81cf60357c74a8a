//! The `.fsg` container: a versioned, sectioned, little-endian binary
//! layout for CSR graphs.
//!
//! ## File layout
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header, 72 bytes                                           │
//! │   0..8   magic  b"FSGSTOR1"                                │
//! │   8..12  version        u32  (currently 1)                 │
//! │  12..16  kind           u32  (0 = graph, 1 = weighted)     │
//! │  16..24  num_vertices   u64                                │
//! │  24..32  num_arcs       u64  (symmetric closure)           │
//! │  32..40  num_original_edges u64                            │
//! │  40..48  num_groups     u64                                │
//! │  48..56  num_memberships u64                               │
//! │  56..60  section_count  u32                                │
//! │  60..64  reserved       u32  (0)                           │
//! │  64..72  header_hash    u64  (FNV-1a of bytes 0..64 ++     │
//! │                               the section table)           │
//! ├────────────────────────────────────────────────────────────┤
//! │ section table, section_count × 32 bytes                    │
//! │   id u32 · reserved u32 · offset u64 · len u64 · hash u64  │
//! ├────────────────────────────────────────────────────────────┤
//! │ payloads, each starting at an 8-byte-aligned offset,       │
//! │ zero-padded in between                                     │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every multi-byte value is little-endian. Payload offsets are 8-byte
//! aligned **in the file**; since `mmap(2)` maps file offset 0 to a
//! page-aligned address, an aligned file offset is an equally aligned
//! memory address, which is what lets [`crate::MmapGraph`] view the
//! `Offsets` section directly as `&[u64]` and `Targets` as `&[u32]`
//! without copying.
//!
//! Each section carries an FNV-1a 64 checksum of its payload bytes, and
//! the header hash covers the header and the whole section table, so a
//! flipped bit anywhere in the metadata fails [`parse_layout`] and a
//! flipped payload bit fails [`verify_checksums`] — never undefined
//! behaviour (see the safety argument in DESIGN.md §Storage layer).

use fs_graph::{fnv1a64, Fnv1a};
use std::fmt;
use std::io;
use std::ops::Range;

/// Magic bytes opening every store file.
pub const MAGIC: [u8; 8] = *b"FSGSTOR1";
/// Current container version.
pub const VERSION: u32 = 1;
/// Byte length of the fixed header (magic through header hash).
pub const HEADER_LEN: usize = 72;
/// Byte length of one section-table entry.
pub const SECTION_ENTRY_LEN: usize = 32;
/// Required alignment of every payload offset.
pub const SECTION_ALIGN: usize = 8;

/// What a store file holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StoreKind {
    /// A full [`fs_graph::Graph`]: symmetric-closure CSR, original-edge
    /// flags, original degree tables, optional group labels.
    Graph,
    /// A [`fs_graph::WeightedGraph`]: CSR plus per-arc weights.
    Weighted,
}

impl StoreKind {
    fn from_u32(raw: u32) -> Option<StoreKind> {
        match raw {
            0 => Some(StoreKind::Graph),
            1 => Some(StoreKind::Weighted),
            _ => None,
        }
    }

    /// The header encoding of this kind.
    pub fn as_u32(self) -> u32 {
        match self {
            StoreKind::Graph => 0,
            StoreKind::Weighted => 1,
        }
    }
}

/// The section ids of version 1. Unknown ids are rejected by
/// [`parse_layout`] (the version field, not silent skipping, governs
/// format evolution).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// `(num_vertices + 1) × u64` CSR row offsets.
    Offsets = 1,
    /// `num_arcs × u32` CSR targets.
    Targets = 2,
    /// `ceil(num_arcs / 64) × u64` packed original-edge flags.
    ArcFlags = 3,
    /// `num_vertices × u32` original in-degrees.
    InDegrees = 4,
    /// `num_vertices × u32` original out-degrees.
    OutDegrees = 5,
    /// `(num_vertices + 1) × u64` group-label row offsets (optional).
    GroupOffsets = 6,
    /// `num_memberships × u32` group labels (optional).
    GroupLabels = 7,
    /// `num_arcs × u64` edge weights as `f64` bit patterns (weighted
    /// kind).
    EdgeWeights = 8,
}

impl SectionId {
    fn from_u32(raw: u32) -> Option<SectionId> {
        Some(match raw {
            1 => SectionId::Offsets,
            2 => SectionId::Targets,
            3 => SectionId::ArcFlags,
            4 => SectionId::InDegrees,
            5 => SectionId::OutDegrees,
            6 => SectionId::GroupOffsets,
            7 => SectionId::GroupLabels,
            8 => SectionId::EdgeWeights,
            _ => return None,
        })
    }

    /// Human-readable section name (CLI `inspect` output).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Offsets => "offsets",
            SectionId::Targets => "targets",
            SectionId::ArcFlags => "arc_flags",
            SectionId::InDegrees => "in_degrees",
            SectionId::OutDegrees => "out_degrees",
            SectionId::GroupOffsets => "group_offsets",
            SectionId::GroupLabels => "group_labels",
            SectionId::EdgeWeights => "edge_weights",
        }
    }
}

/// Errors produced by the store layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem: bad magic/version, malformed section table,
    /// size mismatch, out-of-range values, parse errors during
    /// ingestion.
    Format(String),
    /// A section's payload bytes do not match its recorded checksum.
    Checksum {
        /// Name of the failing section (or `"header"`).
        section: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Format(m) => write!(f, "malformed store: {m}"),
            StoreError::Checksum { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

pub(crate) fn format_err<T>(message: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError::Format(message.into()))
}

/// Decoded fixed header of a store file.
#[derive(Clone, Copy, Debug)]
pub struct Header {
    /// What the file holds.
    pub kind: StoreKind,
    /// `|V|`.
    pub num_vertices: usize,
    /// Arcs of the symmetric closure, `|E|`.
    pub num_arcs: usize,
    /// Distinct directed edges of the original `E_d` (0 for weighted).
    pub num_original_edges: usize,
    /// Distinct group labels (0 for weighted / unlabeled).
    pub num_groups: usize,
    /// Total (vertex, group) memberships.
    pub num_memberships: usize,
}

/// One decoded section-table entry.
#[derive(Clone, Copy, Debug)]
pub struct SectionEntry {
    /// Which section this is.
    pub id: SectionId,
    /// Byte offset of the payload in the file (8-byte aligned).
    pub offset: usize,
    /// Byte length of the payload.
    pub len: usize,
    /// FNV-1a 64 of the payload bytes.
    pub hash: u64,
}

impl SectionEntry {
    /// The payload's byte range in the file.
    pub fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// Decoded header + section table.
#[derive(Clone, Debug)]
pub struct Layout {
    /// The fixed header.
    pub header: Header,
    /// Section entries in file order.
    pub sections: Vec<SectionEntry>,
}

impl Layout {
    /// The entry for `id`, if present.
    pub fn section(&self, id: SectionId) -> Option<&SectionEntry> {
        self.sections.iter().find(|s| s.id == id)
    }

    /// Total bytes of metadata (header + section table) — the prefix the
    /// header hash covers and [`file_digest`] digests.
    pub fn metadata_len(&self) -> usize {
        HEADER_LEN + self.sections.len() * SECTION_ENTRY_LEN
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn as_count(raw: u64, what: &str) -> Result<usize, StoreError> {
    usize::try_from(raw).map_err(|_| StoreError::Format(format!("{what} {raw} overflows usize")))
}

/// Parses and fully validates the header and section table of a store
/// file from its leading bytes (`bytes` may be the whole file or any
/// prefix covering the metadata; `file_len` is the real file length the
/// section ranges are checked against).
///
/// Guarantees on success: magic/version match, the header hash verifies,
/// every section id is known and unique, every payload range is 8-byte
/// aligned, lies past the metadata, stays within `file_len`, and no two
/// payloads overlap.
pub fn parse_layout(bytes: &[u8], file_len: usize) -> Result<Layout, StoreError> {
    if bytes.len() < HEADER_LEN {
        return format_err(format!(
            "file too short for header: {} < {HEADER_LEN} bytes",
            bytes.len()
        ));
    }
    if bytes[0..8] != MAGIC {
        return format_err("bad magic (not a graph store file)");
    }
    let version = read_u32(bytes, 8);
    if version != VERSION {
        return format_err(format!(
            "unsupported version {version} (expected {VERSION})"
        ));
    }
    let kind = StoreKind::from_u32(read_u32(bytes, 12))
        .ok_or_else(|| StoreError::Format(format!("unknown kind {}", read_u32(bytes, 12))))?;
    let num_vertices = as_count(read_u64(bytes, 16), "num_vertices")?;
    let num_arcs = as_count(read_u64(bytes, 24), "num_arcs")?;
    let num_original_edges = as_count(read_u64(bytes, 32), "num_original_edges")?;
    let num_groups = as_count(read_u64(bytes, 40), "num_groups")?;
    let num_memberships = as_count(read_u64(bytes, 48), "num_memberships")?;
    let section_count = read_u32(bytes, 56) as usize;
    let recorded_hash = read_u64(bytes, 64);

    let table_end = HEADER_LEN + section_count * SECTION_ENTRY_LEN;
    if bytes.len() < table_end || file_len < table_end {
        return format_err(format!(
            "file too short for {section_count} section entries ({} < {table_end} bytes)",
            bytes.len().min(file_len)
        ));
    }
    // Header hash covers bytes 0..64 plus the table — everything the
    // reader trusts before touching payloads.
    let mut hasher = Fnv1a::new();
    hasher.update(&bytes[0..64]);
    hasher.update(&bytes[HEADER_LEN..table_end]);
    if hasher.finish() != recorded_hash {
        return Err(StoreError::Checksum { section: "header" });
    }

    let mut sections = Vec::with_capacity(section_count);
    for i in 0..section_count {
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let raw_id = read_u32(bytes, at);
        let id = SectionId::from_u32(raw_id)
            .ok_or_else(|| StoreError::Format(format!("unknown section id {raw_id}")))?;
        let offset = as_count(read_u64(bytes, at + 8), "section offset")?;
        let len = as_count(read_u64(bytes, at + 16), "section length")?;
        let hash = read_u64(bytes, at + 24);
        if !offset.is_multiple_of(SECTION_ALIGN) {
            return format_err(format!("section '{}' misaligned at {offset}", id.name()));
        }
        if offset < table_end {
            return format_err(format!("section '{}' overlaps the metadata", id.name()));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| StoreError::Format("section range overflows".into()))?;
        if end > file_len {
            return format_err(format!(
                "section '{}' [{offset}, {end}) truncated: file is {file_len} bytes",
                id.name()
            ));
        }
        if sections.iter().any(|s: &SectionEntry| s.id == id) {
            return format_err(format!("duplicate section '{}'", id.name()));
        }
        sections.push(SectionEntry {
            id,
            offset,
            len,
            hash,
        });
    }
    // Payloads must not overlap each other (file order need not be id
    // order, so sort a copy by offset to check).
    let mut by_offset: Vec<&SectionEntry> = sections.iter().collect();
    by_offset.sort_by_key(|s| s.offset);
    for pair in by_offset.windows(2) {
        if pair[0].offset + pair[0].len > pair[1].offset {
            return format_err(format!(
                "sections '{}' and '{}' overlap",
                pair[0].id.name(),
                pair[1].id.name()
            ));
        }
    }

    Ok(Layout {
        header: Header {
            kind,
            num_vertices,
            num_arcs,
            num_original_edges,
            num_groups,
            num_memberships,
        },
        sections,
    })
}

/// The byte ranges of every section the `kind` mandates, with exact
/// size checks against the header counts. This is the shared second
/// validation stage of [`crate::MmapGraph::open`] and the owned readers.
#[derive(Clone, Debug)]
pub struct ResolvedSections {
    /// CSR row offsets.
    pub offsets: Range<usize>,
    /// CSR targets.
    pub targets: Range<usize>,
    /// Original-edge flag words (graph kind).
    pub arc_flags: Option<Range<usize>>,
    /// Original in-degrees (graph kind).
    pub in_degrees: Option<Range<usize>>,
    /// Original out-degrees (graph kind).
    pub out_degrees: Option<Range<usize>>,
    /// Group-label row offsets (graph kind, optional).
    pub group_offsets: Option<Range<usize>>,
    /// Group labels (graph kind, optional).
    pub group_labels: Option<Range<usize>>,
    /// Per-arc weights (weighted kind).
    pub edge_weights: Option<Range<usize>>,
}

/// `count` elements of `elem` bytes as a checked byte length — header
/// counts are attacker-controlled until validated, and `(count + 1) *
/// 8` style arithmetic must surface as a clean Format error, not a
/// debug-build overflow panic.
fn byte_len(count: usize, elem: usize) -> Result<usize, StoreError> {
    count
        .checked_mul(elem)
        .ok_or_else(|| StoreError::Format(format!("section of {count} elements overflows")))
}

/// `count + 1` with the same clean-error contract as [`byte_len`].
fn plus_one(count: usize) -> Result<usize, StoreError> {
    count
        .checked_add(1)
        .ok_or_else(|| StoreError::Format(format!("count {count} overflows")))
}

fn require(layout: &Layout, id: SectionId, want_len: usize) -> Result<Range<usize>, StoreError> {
    let s = layout
        .section(id)
        .ok_or_else(|| StoreError::Format(format!("missing section '{}'", id.name())))?;
    if s.len != want_len {
        return format_err(format!(
            "section '{}' is {} bytes, expected {want_len}",
            id.name(),
            s.len
        ));
    }
    Ok(s.range())
}

fn forbid(layout: &Layout, id: SectionId) -> Result<(), StoreError> {
    if layout.section(id).is_some() {
        return format_err(format!("section '{}' not valid for this kind", id.name()));
    }
    Ok(())
}

/// Resolves the section table against the header counts: checks that the
/// kind's mandatory sections are present with exactly the right byte
/// sizes, optional ones are all-or-nothing, and no foreign sections
/// appear.
pub fn resolve_sections(layout: &Layout) -> Result<ResolvedSections, StoreError> {
    let h = &layout.header;
    let offsets = require(
        layout,
        SectionId::Offsets,
        byte_len(plus_one(h.num_vertices)?, 8)?,
    )?;
    let targets = require(layout, SectionId::Targets, byte_len(h.num_arcs, 4)?)?;
    match h.kind {
        StoreKind::Graph => {
            let arc_flags = require(
                layout,
                SectionId::ArcFlags,
                byte_len(h.num_arcs.div_ceil(64), 8)?,
            )?;
            let in_degrees = require(layout, SectionId::InDegrees, byte_len(h.num_vertices, 4)?)?;
            let out_degrees = require(layout, SectionId::OutDegrees, byte_len(h.num_vertices, 4)?)?;
            forbid(layout, SectionId::EdgeWeights)?;
            let has_group_offsets = layout.section(SectionId::GroupOffsets).is_some();
            let has_group_labels = layout.section(SectionId::GroupLabels).is_some();
            if has_group_offsets != has_group_labels {
                return format_err("group sections must appear together");
            }
            let (group_offsets, group_labels) = if has_group_offsets {
                (
                    Some(require(
                        layout,
                        SectionId::GroupOffsets,
                        byte_len(plus_one(h.num_vertices)?, 8)?,
                    )?),
                    Some(require(
                        layout,
                        SectionId::GroupLabels,
                        byte_len(h.num_memberships, 4)?,
                    )?),
                )
            } else {
                // No group sections ⇒ the header may not claim any
                // labels: a phantom count would feed samplers a
                // `num_groups` nothing on disk backs up.
                if h.num_memberships != 0 || h.num_groups != 0 {
                    return format_err(format!(
                        "header records {} groups / {} memberships but no group sections",
                        h.num_groups, h.num_memberships
                    ));
                }
                (None, None)
            };
            Ok(ResolvedSections {
                offsets,
                targets,
                arc_flags: Some(arc_flags),
                in_degrees: Some(in_degrees),
                out_degrees: Some(out_degrees),
                group_offsets,
                group_labels,
                edge_weights: None,
            })
        }
        StoreKind::Weighted => {
            let edge_weights = require(layout, SectionId::EdgeWeights, byte_len(h.num_arcs, 8)?)?;
            if h.num_original_edges != 0 || h.num_groups != 0 || h.num_memberships != 0 {
                return format_err(
                    "weighted stores carry no original-edge or group metadata; counts must be 0",
                );
            }
            for id in [
                SectionId::ArcFlags,
                SectionId::InDegrees,
                SectionId::OutDegrees,
                SectionId::GroupOffsets,
                SectionId::GroupLabels,
            ] {
                forbid(layout, id)?;
            }
            Ok(ResolvedSections {
                offsets,
                targets,
                arc_flags: None,
                in_degrees: None,
                out_degrees: None,
                group_offsets: None,
                group_labels: None,
                edge_weights: Some(edge_weights),
            })
        }
    }
}

/// Verifies every section checksum against the full file contents.
pub fn verify_checksums(bytes: &[u8], layout: &Layout) -> Result<(), StoreError> {
    for s in &layout.sections {
        if fnv1a64(&bytes[s.range()]) != s.hash {
            return Err(StoreError::Checksum {
                section: s.id.name(),
            });
        }
    }
    Ok(())
}

/// A cheap content digest of a store file: the FNV-1a 64 of its metadata
/// prefix (header + section table, which embeds every payload checksum).
/// Any payload change alters a section hash, hence the digest, without
/// this function reading the payloads — `O(sections)` I/O. Used as the
/// ground-truth cache key in `fs-experiments`.
pub fn file_digest(path: impl AsRef<std::path::Path>) -> Result<u64, StoreError> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len() as usize;
    let mut head = vec![0u8; HEADER_LEN.min(file_len)];
    file.read_exact(&mut head)?;
    if head.len() < HEADER_LEN {
        return format_err("file too short for header");
    }
    let section_count = read_u32(&head, 56) as usize;
    let table_len = section_count * SECTION_ENTRY_LEN;
    if file_len < HEADER_LEN + table_len {
        return format_err("file too short for section table");
    }
    let mut table = vec![0u8; table_len];
    file.read_exact(&mut table)?;
    head.extend_from_slice(&table);
    // Validate what we digest (magic, version, header hash) so a digest
    // of garbage cannot collide with a digest of a real store.
    parse_layout(&head, file_len)?;
    Ok(fnv1a64(&head))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for kind in [StoreKind::Graph, StoreKind::Weighted] {
            assert_eq!(StoreKind::from_u32(kind.as_u32()), Some(kind));
        }
        assert_eq!(StoreKind::from_u32(7), None);
    }

    #[test]
    fn section_ids_roundtrip() {
        for raw in 1..=8u32 {
            let id = SectionId::from_u32(raw).unwrap();
            assert_eq!(id as u32, raw);
            assert!(!id.name().is_empty());
        }
        assert_eq!(SectionId::from_u32(0), None);
        assert_eq!(SectionId::from_u32(9), None);
    }

    #[test]
    fn short_file_rejected() {
        assert!(matches!(
            parse_layout(&[0u8; 10], 10),
            Err(StoreError::Format(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[0..8].copy_from_slice(b"NOTSTORE");
        assert!(matches!(
            parse_layout(&bytes, HEADER_LEN),
            Err(StoreError::Format(_))
        ));
    }
}
