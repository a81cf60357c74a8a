//! External-memory ingestion: streaming text edge lists into store
//! files with bounded memory.
//!
//! The in-memory path (`read_edge_list` → `GraphBuilder` →
//! [`crate::write_store`]) holds every raw edge, the sorted arc list,
//! and the adjacency vectors at once — several `Vec<(u, v)>`-sized
//! intermediates that cap conversion at RAM scale. This pipeline keeps
//! only `O(V)` state resident (per-vertex counters, offsets, degree
//! tables) plus one bucket of arcs at a time, spooling everything
//! `O(E)`-sized through temp files:
//!
//! 1. **Count pass** — stream the text once; validate every line (line
//!    numbers in errors), count the two arc records each edge will
//!    produce per owner vertex, learn `|V|`, and collect the (small)
//!    group-label records.
//! 2. **Distribution pass** — stream the text again, appending each
//!    closure arc record `(owner, target, original?)` to the spool file
//!    of the bucket owning its source vertex. Buckets are contiguous
//!    vertex ranges sized so one bucket's records fit the memory
//!    budget — a bucketed counting sort by owner.
//! 3. **Build pass** — per bucket, in vertex order: load, sort by
//!    `(owner, target, !original)`, deduplicate keeping the
//!    original-flagged copy (exactly `GraphBuilder::build`'s rule), and
//!    append the CSR targets and flag bits to their section spools
//!    while accumulating offsets, degree tables and checksums.
//!
//! The output is **byte-identical** to `write_store(read_edge_list(..))`
//! on the same input (pinned by tests): same dedup rules, same section
//! layout, same checksums — one canonical file per graph, whichever
//! path produced it.

use crate::format::{SectionId, StoreError, StoreKind};
use crate::writer::{assemble, u32_bytes, u64_bytes, HeaderFields, SectionData};
use fs_graph::io::{parse_edge_list_line, EdgeListRecord as Record};
use fs_graph::Fnv1a;
use fs_graph::VertexGroups;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Tuning knobs for [`ingest_edge_list`].
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Approximate cap on resident bytes for the per-bucket arc sort
    /// (the `O(V)` tables are always resident on top of this). Default
    /// 256 MiB.
    pub memory_budget_bytes: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            // 24 bytes of peak cost per record (12 decoded + spool
            // buffers) → ~10M arcs per bucket at the default.
            memory_budget_bytes: 256 << 20,
        }
    }
}

/// What one ingestion run did.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// `|V|` of the written store.
    pub num_vertices: usize,
    /// Arcs of the symmetric closure.
    pub num_arcs: usize,
    /// Distinct directed edges of `E_d`.
    pub num_original_edges: usize,
    /// Distinct group labels.
    pub num_groups: usize,
    /// Total (vertex, group) memberships.
    pub num_memberships: usize,
    /// Buckets the distribution pass used.
    pub buckets: usize,
    /// Input lines read (per pass).
    pub lines: usize,
}

fn line_err<T>(line: usize, message: impl std::fmt::Display) -> Result<T, StoreError> {
    Err(StoreError::Format(format!(
        "parse error at line {line}: {message}"
    )))
}

/// Streams the records of `input` through the **shared** edge-list
/// parser ([`fs_graph::io::parse_edge_list_line`] — one grammar for the
/// in-memory and streaming paths, so they cannot drift), handing each
/// to `sink`.
fn scan(
    input: &Path,
    mut sink: impl FnMut(Record, usize) -> Result<(), StoreError>,
) -> Result<usize, StoreError> {
    let reader = BufReader::with_capacity(1 << 20, File::open(input)?);
    let mut lines = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        lines = lineno;
        let record =
            parse_edge_list_line(&line?, lineno).map_err(|e| StoreError::Format(e.to_string()))?;
        sink(record, lineno)?;
    }
    Ok(lines)
}

/// A section spool: payload bytes streamed to a temp file with the
/// running length and checksum the final assembly needs.
struct Spool {
    writer: BufWriter<File>,
    len: u64,
    hash: Fnv1a,
}

impl Spool {
    fn create(path: &Path) -> Result<Spool, StoreError> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Spool {
            writer: BufWriter::with_capacity(1 << 20, file),
            len: 0,
            hash: Fnv1a::new(),
        })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.writer.write_all(bytes)?;
        self.hash.update(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn into_section(mut self) -> Result<SectionData, StoreError> {
        self.writer.flush()?;
        let file = self
            .writer
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        Ok(SectionData::Spooled {
            file,
            len: self.len,
            hash: self.hash.finish(),
        })
    }
}

/// Packs arc-flag bits into spooled u64 words across bucket boundaries.
struct BitSpool {
    spool: Spool,
    word: u64,
    fill: u32,
}

impl BitSpool {
    fn push(&mut self, bit: bool) -> Result<(), StoreError> {
        if bit {
            self.word |= 1u64 << self.fill;
        }
        self.fill += 1;
        if self.fill == 64 {
            let w = self.word;
            self.word = 0;
            self.fill = 0;
            self.spool.write(&w.to_le_bytes())?;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<SectionData, StoreError> {
        if self.fill > 0 {
            let w = self.word;
            self.spool.write(&w.to_le_bytes())?;
        }
        self.spool.into_section()
    }
}

/// Removes the ingestion temp directory on scope exit (success or
/// error), leaving only the output store behind.
struct TempDirGuard(PathBuf);

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const RECORD_LEN: usize = 9; // u32 owner + u32 target + u8 original

/// Converts the text edge list at `input` into a graph store at
/// `output` using bounded memory (see the module docs for the
/// three-pass pipeline). Accepts the same dialect as
/// `fs_graph::io::read_edge_list`, including SNAP-style bare pairs and
/// `g` group records; ids are used as-is (dense convention).
pub fn ingest_edge_list(
    input: impl AsRef<Path>,
    output: impl AsRef<Path>,
    opts: &IngestOptions,
) -> Result<IngestReport, StoreError> {
    let input = input.as_ref();
    let output = output.as_ref();

    // ---- Pass 1: count, validate, learn the universe. -------------
    let mut declared: Option<usize> = None;
    let mut max_seen: usize = 0; // max id + 1
                                 // Line that first referenced the highest vertex id — a
                                 // declared-too-small error points there, exactly like the in-memory
                                 // `read_edge_list` (pinned by the dialect-parity test).
    let mut max_line: usize = 0;
    let mut counts: Vec<u64> = Vec::new(); // arc records per owner
    let mut group_records: Vec<(u32, u32)> = Vec::new();
    let mut total_records: u64 = 0;
    let lines = scan(input, |record, lineno| {
        match record {
            Record::Blank => {}
            Record::Vertices(n) => declared = Some(n),
            Record::Edge(u, v) => {
                let hi = u.max(v) as usize;
                if hi + 1 > max_seen {
                    max_seen = hi + 1;
                    max_line = lineno;
                }
                // Self-loops raise the inferred vertex count but
                // produce no arcs, exactly as in `GraphBuilder`.
                if u != v {
                    if counts.len() <= hi {
                        counts.resize(hi + 1, 0);
                    }
                    counts[u as usize] += 1;
                    counts[v as usize] += 1;
                    total_records += 2;
                }
            }
            Record::Group(v, g) => {
                if v as usize + 1 > max_seen {
                    max_seen = v as usize + 1;
                    max_line = lineno;
                }
                group_records.push((v, g));
            }
        }
        Ok(())
    })?;
    let n = match declared {
        Some(d) => {
            if d < max_seen {
                return line_err(
                    max_line,
                    format!(
                        "declared {d} vertices but records reference vertex {}",
                        max_seen - 1
                    ),
                );
            }
            d
        }
        None => max_seen,
    };
    counts.resize(n, 0);

    // ---- Bucket plan: contiguous vertex ranges under the budget. ---
    let budget_records =
        ((opts.memory_budget_bytes / 24).max(1) as u64).max(total_records.div_ceil(1024)); // cap the spool-file count
    let mut starts: Vec<u32> = vec![0];
    let mut acc = 0u64;
    for (v, &c) in counts.iter().enumerate() {
        if acc + c > budget_records && acc > 0 {
            starts.push(v as u32);
            acc = 0;
        }
        acc += c;
    }
    let buckets = starts.len();

    // Full-name + pid suffix: outputs differing only in extension (or
    // two concurrent ingests) must not share — and mutually delete —
    // one spool directory.
    let tmp_dir =
        crate::writer::sibling_path(output, &format!(".ingest-tmp.{}", std::process::id()));
    std::fs::create_dir_all(&tmp_dir)?;
    let _guard = TempDirGuard(tmp_dir.clone());

    // ---- Pass 2: distribute arc records to their owner's bucket. ---
    {
        let mut writers: Vec<BufWriter<File>> = (0..buckets)
            .map(|b| {
                File::create(tmp_dir.join(format!("bucket-{b}")))
                    .map(|f| BufWriter::with_capacity(1 << 18, f))
            })
            .collect::<Result<_, _>>()?;
        let bucket_of = |v: u32| -> usize { starts.partition_point(|&s| s <= v) - 1 };
        let mut emit = |owner: u32, target: u32, original: bool| -> Result<(), StoreError> {
            let mut rec = [0u8; RECORD_LEN];
            rec[0..4].copy_from_slice(&owner.to_le_bytes());
            rec[4..8].copy_from_slice(&target.to_le_bytes());
            rec[8] = original as u8;
            writers[bucket_of(owner)].write_all(&rec)?;
            Ok(())
        };
        scan(input, |record, lineno| {
            if let Record::Edge(u, v) = record {
                if u == v {
                    return Ok(());
                }
                if u.max(v) as usize >= n {
                    // Input changed between passes; refuse to misroute.
                    return line_err(lineno, "input grew between passes");
                }
                emit(u, v, true)?;
                emit(v, u, false)?;
            }
            Ok(())
        })?;
        for mut w in writers {
            w.flush()?;
        }
    }

    // ---- Pass 3: per bucket, sort + dedup + append CSR sections. ---
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut in_deg = vec![0u32; n];
    let mut out_deg = vec![0u32; n];
    let mut num_original_edges = 0usize;
    let mut num_arcs = 0u64;
    let mut targets_spool = Spool::create(&tmp_dir.join("targets"))?;
    let mut flags_spool = BitSpool {
        spool: Spool::create(&tmp_dir.join("flags"))?,
        word: 0,
        fill: 0,
    };
    for b in 0..buckets {
        let lo = starts[b] as usize;
        let hi = if b + 1 < buckets {
            starts[b + 1] as usize
        } else {
            n
        };
        let path = tmp_dir.join(format!("bucket-{b}"));
        let mut raw = Vec::new();
        File::open(&path)?.read_to_end(&mut raw)?;
        std::fs::remove_file(&path).ok();
        if !raw.len().is_multiple_of(RECORD_LEN) {
            return Err(StoreError::Format("bucket spool corrupted".into()));
        }
        let mut arcs: Vec<(u32, u32, bool)> = raw
            .chunks_exact(RECORD_LEN)
            .map(|c| {
                (
                    u32::from_le_bytes(c[0..4].try_into().unwrap()),
                    u32::from_le_bytes(c[4..8].try_into().unwrap()),
                    c[8] != 0,
                )
            })
            .collect();
        drop(raw);
        // GraphBuilder::build's exact canonical order: the
        // original-flagged copy of a duplicated arc sorts first and
        // survives the dedup.
        arcs.sort_unstable_by_key(|&(u, v, orig)| (u, v, !orig));
        arcs.dedup_by_key(|&mut (u, v, _)| (u, v));
        let mut cursor = 0usize;
        // `v` is a vertex id driving the offsets/degree tables and the
        // record cursor at once, not a plain index into one slice.
        #[allow(clippy::needless_range_loop)]
        for v in lo..hi {
            while cursor < arcs.len() && arcs[cursor].0 as usize == v {
                let (_, t, orig) = arcs[cursor];
                targets_spool.write(&t.to_le_bytes())?;
                flags_spool.push(orig)?;
                if orig {
                    out_deg[v] += 1;
                    in_deg[t as usize] += 1;
                    num_original_edges += 1;
                }
                num_arcs += 1;
                cursor += 1;
            }
            offsets.push(num_arcs);
        }
        debug_assert_eq!(cursor, arcs.len(), "records outside bucket range");
    }

    // ---- Groups (small, in-memory — metadata, not edge-scale). -----
    let groups = if group_records.is_empty() {
        None
    } else {
        let mut per_vertex: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(v, g) in &group_records {
            per_vertex[v as usize].push(g);
        }
        Some(VertexGroups::from_per_vertex(per_vertex))
    };

    // ---- Assemble the container. -----------------------------------
    let mut sections = vec![
        (
            SectionId::Offsets,
            SectionData::Bytes(u64_bytes(offsets.iter().copied())),
        ),
        (SectionId::Targets, targets_spool.into_section()?),
        (SectionId::ArcFlags, flags_spool.finish()?),
        (
            SectionId::InDegrees,
            SectionData::Bytes(u32_bytes(in_deg.iter().copied())),
        ),
        (
            SectionId::OutDegrees,
            SectionData::Bytes(u32_bytes(out_deg.iter().copied())),
        ),
    ];
    let (num_groups, num_memberships) = match &groups {
        Some(g) => {
            sections.push((
                SectionId::GroupOffsets,
                SectionData::Bytes(u64_bytes(g.offsets().iter().map(|&o| o as u64))),
            ));
            sections.push((
                SectionId::GroupLabels,
                SectionData::Bytes(u32_bytes(g.labels().iter().copied())),
            ));
            (g.num_groups(), g.num_memberships())
        }
        None => (0, 0),
    };
    assemble(
        output,
        &HeaderFields {
            kind: StoreKind::Graph,
            num_vertices: n,
            num_arcs: num_arcs as usize,
            num_original_edges,
            num_groups,
            num_memberships,
        },
        sections,
    )?;
    Ok(IngestReport {
        num_vertices: n,
        num_arcs: num_arcs as usize,
        num_original_edges,
        num_groups,
        num_memberships,
        buckets,
        lines,
    })
}
