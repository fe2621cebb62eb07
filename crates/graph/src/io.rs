//! Graph I/O: whitespace edge lists (SNAP style), MatrixMarket coordinate
//! files, DIMACS `.gr` files, and a compact little-endian binary format
//! for fast reloading of generated benchmark graphs.
//!
//! All readers treat their input as **untrusted**: they return
//! [`GraphResult`] with line-numbered [`GraphError`]s instead of
//! panicking or silently truncating, bound every allocation against the
//! input size where it is known, and validate the resulting structure
//! ([`Csr::validate`] / [`Coo::validate`]) before returning it. Writers
//! keep plain [`io::Result`] — their input is an in-memory graph the
//! process already owns.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::error::{GraphError, GraphResult};
use crate::types::{EdgeId, VertexId, Weight};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A simulated read failure the loader fault hook can request: the
/// stream is truncated after `at` bytes, or one byte is flipped. Both
/// surface as typed [`GraphError`]s through the loaders' existing
/// validation (truncation diagnosis, checksum mismatch, parse errors) —
/// the injection proves those paths fire, it does not add new ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// End the stream after `at` bytes, as if the file were cut short.
    Truncate {
        /// Byte count after which reads report EOF.
        at: u64,
    },
    /// XOR the byte at offset `at` with `mask` (pass a non-zero mask).
    Corrupt {
        /// Byte offset to corrupt.
        at: u64,
        /// XOR mask applied to that byte.
        mask: u8,
    },
}

/// Decides whether (and how) to fault one load. Receives the path being
/// loaded and the input length in bytes; returns `None` to read cleanly.
pub type ReadFaultHook = dyn Fn(&str, u64) -> Option<IoFault> + Send + Sync;

/// Fast-path flag for [`read_fault`]: one relaxed load when no hook is
/// installed.
static READ_FAULT_INSTALLED: AtomicBool = AtomicBool::new(false);
static READ_FAULT_HOOK: Mutex<Option<Arc<ReadFaultHook>>> = Mutex::new(None);

/// Installs (with `Some`) or removes (with `None`) a process-wide fault
/// hook consulted by [`load_graph`] before reading a file. Used by the
/// fault-injection harness (`--inject-faults io=R`) to simulate
/// truncated and corrupted datasets deterministically.
pub fn set_read_fault_hook(hook: Option<Arc<ReadFaultHook>>) {
    // ORDERING: Release — publishes the hook slot (filled under the mutex
    // below) before readers can observe the installed flag.
    READ_FAULT_INSTALLED.store(hook.is_some(), Ordering::Release);
    match READ_FAULT_HOOK.lock() {
        Ok(mut slot) => *slot = hook,
        Err(poisoned) => *poisoned.into_inner() = hook,
    }
}

/// Consults the installed fault hook, if any.
fn read_fault(path: &str, len: u64) -> Option<IoFault> {
    // ORDERING: Acquire — pairs with the Release store in set_read_fault_hook
    // so the fast-path flag never races ahead of the hook slot.
    if !READ_FAULT_INSTALLED.load(Ordering::Acquire) {
        return None;
    }
    let hook = match READ_FAULT_HOOK.lock() {
        Ok(slot) => slot.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    };
    hook.and_then(|h| h(path, len))
}

/// A reader that applies one [`IoFault`] to the wrapped stream.
struct FaultyReader<R: Read> {
    inner: R,
    fault: IoFault,
    pos: u64,
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.fault {
            IoFault::Truncate { at } => {
                let remaining = at.saturating_sub(self.pos);
                if remaining == 0 {
                    return Ok(0);
                }
                let take = buf.len().min(remaining.min(usize::MAX as u64) as usize);
                let n = self.inner.read(&mut buf[..take])?;
                self.pos += n as u64;
                Ok(n)
            }
            IoFault::Corrupt { at, mask } => {
                let n = self.inner.read(buf)?;
                if at >= self.pos && at < self.pos + n as u64 {
                    buf[(at - self.pos) as usize] ^= mask;
                }
                self.pos += n as u64;
                Ok(n)
            }
        }
    }
}

/// Largest admissible vertex id: `VertexId::MAX` itself is reserved for
/// the `INVALID_VERTEX` / `INFINITY` sentinels used by the operators.
const MAX_VERTEX_ID: u64 = VertexId::MAX as u64 - 1;

/// Converts a parsed id to `VertexId`, rejecting (rather than wrapping)
/// anything outside the representable range.
fn checked_id(v: u64, lineno: usize) -> GraphResult<VertexId> {
    if v > MAX_VERTEX_ID {
        return Err(GraphError::VertexOutOfRange { line: lineno, id: v, max: MAX_VERTEX_ID });
    }
    Ok(v as VertexId)
}

/// Parses a SNAP-style edge list: one `src dst [weight]` triple per line,
/// `#`- or `%`-prefixed comment lines ignored. Vertex ids must be
/// non-negative integers within the `VertexId` range; weighted and
/// unweighted lines must not be mixed.
pub fn read_edge_list<R: Read>(reader: R) -> GraphResult<Coo> {
    let mut coo = Coo::new(0);
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            // honor the writer's "# vertices N ..." header so trailing
            // isolated vertices survive a round trip
            let mut words = t.trim_start_matches(['#', '%']).split_whitespace();
            if words.next() == Some("vertices") {
                if let Some(Ok(n)) = words.next().map(str::parse::<u64>) {
                    if n > MAX_VERTEX_ID + 1 {
                        return Err(GraphError::parse(
                            lineno,
                            format!("declared vertex count {n} exceeds the VertexId range"),
                        ));
                    }
                    coo.num_vertices = coo.num_vertices.max(n as usize);
                }
            }
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>, what: &str| -> GraphResult<u64> {
            s.ok_or_else(|| GraphError::parse(lineno, format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|_| GraphError::parse(lineno, format!("invalid {what}")))
        };
        let s = checked_id(parse(it.next(), "source")?, lineno)?;
        let d = checked_id(parse(it.next(), "destination")?, lineno)?;
        match it.next() {
            Some(w) => {
                if coo.weights.is_none() && coo.num_edges() > 0 {
                    return Err(GraphError::parse(
                        lineno,
                        "unexpected weight on unweighted edge list",
                    ));
                }
                let w: Weight =
                    w.parse().map_err(|_| GraphError::parse(lineno, "invalid weight"))?;
                coo.push_weighted(s, d, w);
            }
            None => {
                if coo.weights.is_some() {
                    return Err(GraphError::parse(
                        lineno,
                        "missing weight on weighted edge list",
                    ));
                }
                coo.push(s, d);
            }
        }
    }
    coo.validate()?;
    Ok(coo)
}

/// Writes a SNAP-style edge list (with weights if present).
pub fn write_edge_list<W: Write>(coo: &Coo, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {} edges {}", coo.num_vertices, coo.num_edges())?;
    for i in 0..coo.num_edges() {
        match &coo.weights {
            Some(ws) => writeln!(w, "{} {} {}", coo.src[i], coo.dst[i], ws[i])?,
            None => writeln!(w, "{} {}", coo.src[i], coo.dst[i])?,
        }
    }
    w.flush()
}

/// Parses a MatrixMarket coordinate file (`%%MatrixMarket matrix
/// coordinate ...`). 1-based indices are converted to 0-based. If the
/// header declares `symmetric`, the mirrored edges are materialized.
///
/// When the total input size is unknown, truncated bodies still fail
/// with a typed error at end of input; use [`read_matrix_market_sized`]
/// to additionally reject size lines whose `nnz` cannot possibly fit in
/// the input before reading the body.
pub fn read_matrix_market<R: Read>(reader: R) -> GraphResult<Coo> {
    read_matrix_market_sized(reader, None)
}

/// [`read_matrix_market`] with a known total input size in bytes, which
/// bounds the declared `nnz` (each entry takes at least 4 bytes: two
/// 1-digit ids, a separator, a newline) before anything is read or
/// reserved — a lying size line fails fast instead of spinning through a
/// huge claimed entry count.
pub fn read_matrix_market_sized<R: Read>(
    reader: R,
    input_len: Option<u64>,
) -> GraphResult<Coo> {
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let header = line.to_ascii_lowercase();
    if !header.starts_with("%%matrixmarket matrix coordinate") {
        return Err(GraphError::header("not a MatrixMarket coordinate file"));
    }
    let symmetric = header.contains("symmetric");
    let pattern = header.contains("pattern");
    // skip remaining comments; first non-comment line is the size line
    let (rows, cols, nnz) = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(GraphError::header("missing size line"));
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let mut next = |what: &str| -> GraphResult<u64> {
            it.next()
                .ok_or_else(|| GraphError::header(format!("size line missing {what}")))?
                .parse()
                .map_err(|_| GraphError::header(format!("bad {what}")))
        };
        break (next("rows")?, next("cols")?, next("nnz")?);
    };
    if rows > MAX_VERTEX_ID + 1 || cols > MAX_VERTEX_ID + 1 {
        return Err(GraphError::header(format!(
            "matrix dimensions {rows}x{cols} exceed the VertexId range"
        )));
    }
    if let Some(len) = input_len {
        // every entry line needs >= 4 bytes; a claimed nnz beyond that is
        // a lie regardless of body content
        if nnz > len / 4 + 1 {
            return Err(GraphError::header(format!(
                "size line claims {nnz} entries but the {len}-byte input \
                 can hold at most {}",
                len / 4 + 1
            )));
        }
    }
    let nnz = usize::try_from(nnz)
        .map_err(|_| GraphError::header(format!("entry count {nnz} exceeds memory")))?;
    let n = rows.max(cols) as usize;
    let mut coo = Coo::new(n);
    // reserve only when the claim is backed by the input size; otherwise
    // let the vectors grow as entries actually parse
    if input_len.is_some() {
        coo.src.reserve(nnz);
        coo.dst.reserve(nnz);
    }
    let mut read = 0usize;
    let mut lineno = 0usize;
    while read < nnz {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(GraphError::corrupt(format!("expected {nnz} entries, found {read}")));
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let mut next_id = |what: &str| -> GraphResult<VertexId> {
            let v: u64 = it
                .next()
                .ok_or_else(|| GraphError::parse(lineno, format!("missing {what}")))?
                .parse()
                .map_err(|_| GraphError::parse(lineno, format!("invalid {what}")))?;
            if v == 0 {
                return Err(GraphError::parse(lineno, "MatrixMarket indices are 1-based"));
            }
            let id = checked_id(v - 1, lineno)?;
            if id as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    line: lineno,
                    id: v,
                    max: n as u64,
                });
            }
            Ok(id)
        };
        let r = next_id("row")?;
        let c = next_id("col")?;
        if pattern {
            coo.push(r, c);
            if symmetric && r != c {
                coo.push(c, r);
            }
        } else {
            // real/integer value: round to the nearest non-negative weight
            let v: f64 = it
                .next()
                .ok_or_else(|| GraphError::parse(lineno, "missing value"))?
                .parse()
                .map_err(|_| GraphError::parse(lineno, "invalid value"))?;
            let w = v.abs().round() as Weight;
            coo.push_weighted(r, c, w);
            if symmetric && r != c {
                coo.push_weighted(c, r, w);
            }
        }
        read += 1;
    }
    coo.validate()?;
    Ok(coo)
}

/// Parses a DIMACS shortest-path challenge file (`.gr`): `c` comment
/// lines, one `p sp <n> <m>` problem line, and `a <src> <dst> <weight>`
/// arc lines with 1-based vertex ids in `[1, n]` (the format the real
/// roadNet benchmark graphs ship in).
pub fn read_dimacs<R: Read>(reader: R) -> GraphResult<Coo> {
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    let mut coo: Option<Coo> = None;
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let t = line.trim();
        let mut it = t.split_whitespace();
        match it.next() {
            None | Some("c") => continue,
            Some("p") => {
                if it.next() != Some("sp") {
                    return Err(GraphError::parse(lineno, "expected 'p sp <n> <m>'"));
                }
                let n: u64 = it
                    .next()
                    .ok_or_else(|| GraphError::parse(lineno, "missing vertex count"))?
                    .parse()
                    .map_err(|_| GraphError::parse(lineno, "bad vertex count"))?;
                if n > MAX_VERTEX_ID + 1 {
                    return Err(GraphError::parse(
                        lineno,
                        format!("vertex count {n} exceeds the VertexId range"),
                    ));
                }
                coo = Some(Coo::new(n as usize));
            }
            Some("a") => {
                let coo = coo
                    .as_mut()
                    .ok_or_else(|| GraphError::parse(lineno, "arc before problem line"))?;
                let mut next_num = |what: &str| -> GraphResult<u64> {
                    it.next()
                        .ok_or_else(|| GraphError::parse(lineno, format!("missing {what}")))?
                        .parse()
                        .map_err(|_| GraphError::parse(lineno, format!("bad {what}")))
                };
                let s = next_num("source")?;
                let d = next_num("destination")?;
                let w = next_num("weight")? as Weight;
                if s == 0 || d == 0 {
                    return Err(GraphError::parse(lineno, "DIMACS ids are 1-based"));
                }
                let n = coo.num_vertices as u64;
                if s > n || d > n {
                    return Err(GraphError::VertexOutOfRange {
                        line: lineno,
                        id: s.max(d),
                        max: n,
                    });
                }
                coo.push_weighted(checked_id(s - 1, lineno)?, checked_id(d - 1, lineno)?, w);
            }
            Some(other) => {
                return Err(GraphError::parse(lineno, format!("unknown record type {other:?}")))
            }
        }
    }
    let coo = coo.ok_or_else(|| GraphError::header("missing problem line"))?;
    coo.validate()?;
    Ok(coo)
}

/// Legacy binary magic: no trailing checksum.
const BINARY_MAGIC_V1: &[u8; 8] = b"GNRKCSR1";
/// Current binary magic: payload followed by a 64-bit FNV-1a checksum.
const BINARY_MAGIC_V2: &[u8; 8] = b"GNRKCSR2";
/// Chunk size for reading header-declared arrays: a lying header fails
/// on EOF after at most one chunk of over-allocation.
const BINARY_READ_CHUNK: usize = 16 << 20;

/// Incremental 64-bit FNV-1a, used as the binary format's integrity
/// checksum (detects truncation and bit rot, not adversarial tampering).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Serializes a CSR to the compact binary format: magic `GNRKCSR2`,
/// little-endian `u64` vertex/edge counts, a weights flag byte, the
/// `u32` offset/column/weight arrays, and a trailing 64-bit FNV-1a
/// checksum over everything after the magic.
pub fn write_csr_binary<W: Write>(csr: &Csr, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut hash = Fnv1a::new();
    let mut emit = |w: &mut BufWriter<W>, bytes: &[u8]| -> io::Result<()> {
        hash.update(bytes);
        w.write_all(bytes)
    };
    w.write_all(BINARY_MAGIC_V2)?;
    emit(&mut w, &(csr.num_vertices() as u64).to_le_bytes())?;
    emit(&mut w, &(csr.num_edges() as u64).to_le_bytes())?;
    emit(&mut w, &[csr.edge_values().is_some() as u8])?;
    for &x in csr.row_offsets() {
        emit(&mut w, &x.to_le_bytes())?;
    }
    for &x in csr.col_indices() {
        emit(&mut w, &x.to_le_bytes())?;
    }
    if let Some(vals) = csr.edge_values() {
        for &x in vals {
            emit(&mut w, &x.to_le_bytes())?;
        }
    }
    w.write_all(&hash.finish().to_le_bytes())?;
    w.flush()
}

/// Deserializes a CSR written by [`write_csr_binary`]. Accepts both the
/// current `GNRKCSR2` format (whose trailing checksum is verified) and
/// the legacy `GNRKCSR1` format (no checksum). Either way the decoded
/// structure must pass [`Csr::validate`].
///
/// When the total input size is unknown, header-declared array lengths
/// are still read in bounded chunks so a lying header fails on EOF
/// instead of allocating its claim up front; use
/// [`read_csr_binary_sized`] to reject impossible headers outright.
pub fn read_csr_binary<R: Read>(reader: R) -> GraphResult<Csr> {
    read_csr_binary_sized(reader, None)
}

/// [`read_csr_binary`] with a known total input size in bytes, which is
/// checked against the header's vertex/edge counts **before** any array
/// is allocated.
pub fn read_csr_binary_sized<R: Read>(reader: R, input_len: Option<u64>) -> GraphResult<Csr> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(map_truncation)?;
    let checksummed = match &magic {
        m if m == BINARY_MAGIC_V2 => true,
        m if m == BINARY_MAGIC_V1 => false,
        _ => return Err(GraphError::header("bad magic (not a gunrock binary CSR)")),
    };
    let mut hash = Fnv1a::new();
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf).map_err(map_truncation)?;
    hash.update(&u64buf);
    let n = u64::from_le_bytes(u64buf);
    r.read_exact(&mut u64buf).map_err(map_truncation)?;
    hash.update(&u64buf);
    let m = u64::from_le_bytes(u64buf);
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag).map_err(map_truncation)?;
    hash.update(&flag);
    if flag[0] > 1 {
        return Err(GraphError::header(format!("bad weights flag {}", flag[0])));
    }
    let weighted = flag[0] == 1;
    if n > MAX_VERTEX_ID + 1 {
        return Err(GraphError::header(format!("vertex count {n} exceeds the VertexId range")));
    }
    if m > EdgeId::MAX as u64 {
        return Err(GraphError::header(format!("edge count {m} exceeds the EdgeId range")));
    }
    // full payload size implied by the header, checked against the real
    // input size before any allocation happens
    let arrays = (n + 1)
        .checked_add(m.checked_mul(1 + weighted as u64).ok_or_else(|| {
            GraphError::header(format!("edge count {m} overflows the payload size"))
        })?)
        .and_then(|words| words.checked_mul(4))
        .ok_or_else(|| {
            GraphError::header(format!("counts {n}/{m} overflow the payload size"))
        })?;
    if let Some(len) = input_len {
        let expected = 25 + arrays + if checksummed { 8 } else { 0 };
        if expected != len {
            return Err(GraphError::corrupt(format!(
                "header claims a {expected}-byte file but the input is {len} bytes"
            )));
        }
    }
    let mut read_u32s = |r: &mut BufReader<R>, len: usize| -> GraphResult<Vec<u32>> {
        // chunked so an unbacked header claim fails before its full
        // allocation, even when the input size is unknown
        let mut out = Vec::new();
        let mut remaining = len * 4;
        let mut chunk = vec![0u8; BINARY_READ_CHUNK.min(remaining)];
        while remaining > 0 {
            let take = BINARY_READ_CHUNK.min(remaining);
            r.read_exact(&mut chunk[..take]).map_err(map_truncation)?;
            hash.update(&chunk[..take]);
            out.extend(
                chunk[..take]
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
            remaining -= take;
        }
        Ok(out)
    };
    let offsets: Vec<EdgeId> = read_u32s(&mut r, n as usize + 1)?;
    let cols: Vec<VertexId> = read_u32s(&mut r, m as usize)?;
    let vals = if weighted { Some(read_u32s(&mut r, m as usize)?) } else { None };
    if checksummed {
        r.read_exact(&mut u64buf).map_err(map_truncation)?;
        let stored = u64::from_le_bytes(u64buf);
        let computed = hash.finish();
        if stored != computed {
            return Err(GraphError::corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
    }
    Csr::try_from_raw(offsets, cols, vals)
}

/// Maps an unexpected-EOF while decoding the binary format to a
/// truncation diagnosis; other I/O errors pass through.
fn map_truncation(e: io::Error) -> GraphError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        GraphError::corrupt("input ends before the header-declared payload")
    } else {
        GraphError::Io(e)
    }
}

/// Convenience: load a graph from a path, dispatching on extension
/// (`.mtx` -> MatrixMarket, `.gr` -> DIMACS, `.bin` -> binary CSR,
/// anything else -> edge list). The file size bounds header claims
/// before allocation, and the returned CSR has passed
/// [`Csr::validate`]. Text formats build with default (undirected)
/// options.
pub fn load_graph(path: &Path) -> GraphResult<Csr> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata().ok().map(|m| m.len());
    match read_fault(&path.display().to_string(), len.unwrap_or(0)) {
        Some(fault) => {
            // a truncated file's metadata length is the truncated length
            let len = match fault {
                IoFault::Truncate { at } => len.map(|l| l.min(at)),
                IoFault::Corrupt { .. } => len,
            };
            load_graph_from(FaultyReader { inner: file, fault, pos: 0 }, path, len)
        }
        None => load_graph_from(file, path, len),
    }
}

/// Format dispatch shared by the clean and fault-injected load paths.
fn load_graph_from<R: Read>(reader: R, path: &Path, len: Option<u64>) -> GraphResult<Csr> {
    let csr = match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => read_csr_binary_sized(reader, len)?,
        Some("gr") => {
            let coo = read_dimacs(reader)?;
            crate::builder::GraphBuilder::new().build(coo)
        }
        Some("mtx") => {
            let coo = read_matrix_market_sized(reader, len)?;
            crate::builder::GraphBuilder::new().build(coo)
        }
        _ => {
            let coo = read_edge_list(reader)?;
            crate::builder::GraphBuilder::new().build(coo)
        }
    };
    csr.validate()?;
    Ok(csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::rmat;

    #[test]
    fn edge_list_round_trip() {
        let mut coo = Coo::from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let mut buf = Vec::new();
        write_edge_list(&coo, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back.src, coo.src);
        assert_eq!(back.dst, coo.dst);
        // weighted round trip
        coo.randomize_weights(1, 64, 1);
        buf.clear();
        write_edge_list(&coo, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back.weights, coo.weights);
    }

    #[test]
    fn edge_list_ignores_comments_and_blank_lines() {
        let text = "# comment\n\n0 1\n% another\n1 2\n";
        let coo = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(coo.num_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("42\n".as_bytes()).is_err());
    }

    #[test]
    fn edge_list_rejects_oversized_ids_with_line_number() {
        let text = format!("0 1\n1 {}\n", u64::MAX);
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::VertexOutOfRange { line, id, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(id, u64::MAX);
            }
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
        // u32::MAX itself is the INVALID_VERTEX sentinel, also rejected
        let text = format!("0 {}\n", u32::MAX);
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphError::VertexOutOfRange { line: 1, .. })
        ));
    }

    #[test]
    fn edge_list_rejects_mixed_weightedness() {
        // weighted then unweighted
        assert!(matches!(
            read_edge_list("0 1 5\n1 2\n".as_bytes()),
            Err(GraphError::Parse { line: 2, .. })
        ));
        // unweighted then weighted
        assert!(matches!(
            read_edge_list("0 1\n1 2 5\n".as_bytes()),
            Err(GraphError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn matrix_market_general_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n% c\n3 3 2\n1 2\n3 1\n";
        let coo = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(coo.num_vertices, 3);
        assert_eq!(coo.edges().collect::<Vec<_>>(), vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn matrix_market_symmetric_mirrors_edges() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 3.0\n";
        let coo = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(coo.num_edges(), 2);
        assert_eq!(coo.weights.as_ref().unwrap(), &[3, 3]);
    }

    #[test]
    fn matrix_market_rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_rejects_truncated_body() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n";
        match read_matrix_market(text.as_bytes()) {
            Err(GraphError::Corrupt { msg }) => assert!(msg.contains("expected 5"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn matrix_market_sized_rejects_impossible_nnz() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n3 3 999999999\n1 2\n";
        let err =
            read_matrix_market_sized(text.as_bytes(), Some(text.len() as u64)).unwrap_err();
        assert!(matches!(err, GraphError::InvalidHeader { .. }), "{err:?}");
        // without the size hint the same input errors at EOF instead of
        // looping forever
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_rejects_index_beyond_declared_size() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 9\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(GraphError::VertexOutOfRange { line: 1, id: 9, .. })
        ));
    }

    #[test]
    fn dimacs_round_trip() {
        let coo = Coo::from_weighted_edges(4, &[(0, 1, 5), (2, 3, 9), (1, 2, 1)]);
        let text = "c generated\np sp 4 3\na 1 2 5\na 3 4 9\na 2 3 1\n";
        let back = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(back.num_vertices, 4);
        assert_eq!(back.src, coo.src);
        assert_eq!(back.dst, coo.dst);
        assert_eq!(back.weights, coo.weights);
    }

    #[test]
    fn dimacs_rejects_malformed_input() {
        assert!(read_dimacs("a 1 2 3\n".as_bytes()).is_err()); // arc before p
        assert!(read_dimacs("p tw 3 1\n".as_bytes()).is_err()); // wrong kind
        assert!(read_dimacs("p sp 3 1\na 0 2 1\n".as_bytes()).is_err()); // 0-based
        assert!(read_dimacs("x\n".as_bytes()).is_err()); // unknown record
    }

    #[test]
    fn dimacs_rejects_arc_beyond_declared_vertex_count() {
        match read_dimacs("p sp 3 1\na 1 9 5\n".as_bytes()) {
            Err(GraphError::VertexOutOfRange { line, id, max }) => {
                assert_eq!((line, id, max), (2, 9, 3));
            }
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn dimacs_rejects_u64_ids_without_wrapping() {
        let text = format!("p sp 3 1\na 1 {} 5\n", (u32::MAX as u64) + 2);
        assert!(matches!(
            read_dimacs(text.as_bytes()),
            Err(GraphError::VertexOutOfRange { line: 2, .. })
        ));
    }

    #[test]
    fn matrix_market_writer_round_trips_through_reader() {
        let pattern =
            "%%MatrixMarket matrix coordinate pattern general\n5 5 3\n1 2\n4 5\n3 3\n";
        let integer =
            "%%MatrixMarket matrix coordinate integer general\n5 5 3\n1 2 7\n4 5 1\n3 3 9\n";
        for (text, weights) in [(pattern, None), (integer, Some(vec![7, 1, 9]))] {
            let back = read_matrix_market(text.as_bytes()).unwrap();
            assert_eq!(back.num_vertices, 5);
            assert_eq!(back.src, vec![0, 3, 2]);
            assert_eq!(back.dst, vec![1, 4, 2]);
            assert_eq!(back.weights, weights);
        }
    }

    #[test]
    fn binary_round_trip_weighted_and_unweighted() {
        for weighted in [false, true] {
            let mut coo = rmat(6, 8, Default::default(), 3);
            if weighted {
                coo.randomize_weights(1, 64, 9);
            }
            let g = GraphBuilder::new().build(coo);
            let mut buf = Vec::new();
            write_csr_binary(&g, &mut buf).unwrap();
            let back = read_csr_binary(&buf[..]).unwrap();
            assert_eq!(back.row_offsets(), g.row_offsets());
            assert_eq!(back.col_indices(), g.col_indices());
            assert_eq!(back.edge_values(), g.edge_values());
            // the sized reader accepts its own output too
            let back = read_csr_binary_sized(&buf[..], Some(buf.len() as u64)).unwrap();
            assert_eq!(back.col_indices(), g.col_indices());
        }
    }

    #[test]
    fn binary_rejects_bad_magic() {
        assert!(read_csr_binary(&b"NOTMAGIC........"[..]).is_err());
    }

    #[test]
    fn binary_reads_legacy_v1_payloads() {
        // hand-built GNRKCSR1 blob: 2 vertices, 1 unweighted edge 0 -> 1
        let mut blob = Vec::new();
        blob.extend_from_slice(b"GNRKCSR1");
        blob.extend_from_slice(&2u64.to_le_bytes());
        blob.extend_from_slice(&1u64.to_le_bytes());
        blob.push(0);
        for x in [0u32, 1, 1] {
            blob.extend_from_slice(&x.to_le_bytes());
        }
        blob.extend_from_slice(&1u32.to_le_bytes());
        let g = read_csr_binary(&blob[..]).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn binary_rejects_truncation_and_flipped_bits() {
        let g = GraphBuilder::new().build(rmat(5, 8, Default::default(), 3));
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        // truncation at every prefix length is a typed error, never a panic
        for cut in [0, 4, 8, 12, 20, 24, 25, buf.len() / 2, buf.len() - 1] {
            let err = read_csr_binary(&buf[..cut]).unwrap_err();
            assert!(err.is_malformed_input(), "cut={cut}: {err:?}");
        }
        // flip one payload bit: the checksum catches it (or validation,
        // if the flip lands in a structural array)
        let mut bad = buf.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(read_csr_binary(&bad[..]).is_err());
    }

    #[test]
    fn read_fault_hook_injects_truncation_and_corruption() {
        let g = GraphBuilder::new().build(rmat(5, 8, Default::default(), 3));
        let dir = std::env::temp_dir().join(format!("gunrock-iofault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("iofault-target.bin");
        write_csr_binary(&g, std::fs::File::create(&path).unwrap()).unwrap();

        // the hook keys on this test's unique file name so concurrently
        // running tests that load other files are unaffected
        let fault = std::sync::Arc::new(std::sync::Mutex::new(None::<IoFault>));
        let fault_in_hook = fault.clone();
        set_read_fault_hook(Some(Arc::new(move |p: &str, _len: u64| {
            if p.contains("iofault-target") {
                *fault_in_hook.lock().unwrap()
            } else {
                None
            }
        })));

        // truncation surfaces as the malformed-input diagnosis
        *fault.lock().unwrap() = Some(IoFault::Truncate { at: 30 });
        let err = load_graph(&path).unwrap_err();
        assert!(err.is_malformed_input(), "{err:?}");
        // a flipped payload bit trips the checksum (or validation)
        *fault.lock().unwrap() = Some(IoFault::Corrupt { at: 40, mask: 0x20 });
        assert!(load_graph(&path).is_err());
        // a hook that declines leaves the load clean
        *fault.lock().unwrap() = None;
        assert_eq!(load_graph(&path).unwrap().num_edges(), g.num_edges());

        set_read_fault_hook(None);
        assert_eq!(load_graph(&path).unwrap().num_vertices(), g.num_vertices());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_sized_rejects_lying_header() {
        let g = GraphBuilder::new().build(rmat(4, 8, Default::default(), 3));
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        // inflate the claimed edge count without growing the file
        let mut bad = buf.clone();
        bad[16..24].copy_from_slice(&(u32::MAX as u64).to_le_bytes());
        let err = read_csr_binary_sized(&bad[..], Some(bad.len() as u64)).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt { .. }), "{err:?}");
        // unknown size: still fails (on EOF) rather than allocating 16 GiB
        assert!(read_csr_binary(&bad[..]).is_err());
    }
}
