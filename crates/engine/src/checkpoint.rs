//! Versioned checkpoint encoding (`gunrock-ckpt/v1`).
//!
//! Every bulk-synchronous iteration boundary is a consistent state (§3.2
//! of the paper), so a primitive's full progress is a handful of arrays:
//! the frontier plus its per-vertex problem state. A [`Checkpoint`]
//! captures those as named typed sections and serializes them as:
//!
//! ```text
//! magic "GRCKPT01" | u32 LE header length | JSON header | payload | u64 LE FNV-1a
//! ```
//!
//! The JSON header (emitted with [`JsonBuilder`], parsed back with
//! [`JsonValue`]) is self-describing — schema id, primitive name,
//! iteration, and a section table with name/type/length — while the
//! payload is the compact little-endian concatenation of the section
//! arrays. `f64` sections round-trip bit-exactly (`to_le_bytes` /
//! `from_le_bytes`), which is what makes a resumed PageRank run
//! bit-identical to an uninterrupted one. The trailing FNV-1a checksum
//! covers header + payload and rejects truncation and bit rot; the
//! version byte pair in the magic rejects future-format files.
//!
//! Writes are atomic (`path.tmp` + rename) so a crash mid-write never
//! leaves a half-valid checkpoint where a resumable one used to be.

use crate::fnv::fnv1a;
use crate::json::{JsonBuilder, JsonValue};
use crate::lanes::LANES;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

/// File magic for the current format. The trailing `01` is the version:
/// a recognized prefix with a different version is reported as
/// [`CheckpointError::VersionMismatch`], not `BadMagic`.
pub const CKPT_MAGIC_V1: &[u8; 8] = b"GRCKPT01";

/// Schema identifier stored in (and required of) the JSON header.
pub const CKPT_SCHEMA_V1: &str = "gunrock-ckpt/v1";

/// Why a checkpoint could not be decoded or written.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with a `GRCKPT` magic at all.
    BadMagic,
    /// A `GRCKPT` file of a different format version.
    VersionMismatch {
        /// The version tag found in the file (magic suffix or schema id).
        found: String,
    },
    /// The input ends before the structure it declares.
    Truncated {
        /// What was being read when input ran out.
        what: &'static str,
    },
    /// Stored and recomputed checksums disagree.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the read bytes.
        computed: u64,
    },
    /// Structurally invalid header or section table.
    Malformed(String),
    /// A section the caller requires is absent or has the wrong type.
    MissingSection(String),
    /// The checkpoint belongs to a different primitive than the caller
    /// is trying to resume.
    WrongPrimitive {
        /// Primitive the caller expected.
        expected: String,
        /// Primitive recorded in the checkpoint.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => {
                write!(f, "bad magic (not a gunrock checkpoint file)")
            }
            CheckpointError::VersionMismatch { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found:?} (expected {CKPT_SCHEMA_V1})"
                )
            }
            CheckpointError::Truncated { what } => {
                write!(f, "checkpoint truncated while reading {what}")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::MissingSection(name) => {
                write!(f, "checkpoint is missing required section {name:?}")
            }
            CheckpointError::WrongPrimitive { expected, found } => {
                write!(f, "checkpoint is for primitive {found:?}, cannot resume {expected:?}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One named, typed array in a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct Section {
    /// Section name, unique within one checkpoint.
    pub name: String,
    /// The array payload.
    pub data: SectionData,
}

/// Typed payload of a [`Section`]. Three element types cover every
/// primitive's state: `u32` for frontiers/labels/ids, `u64` for counters
/// and packed scalars, `f64` for PageRank/BC floating state.
#[derive(Clone, Debug, PartialEq)]
pub enum SectionData {
    /// Little-endian `u32` array.
    U32(Vec<u32>),
    /// Little-endian `u64` array.
    U64(Vec<u64>),
    /// Little-endian IEEE-754 `f64` array (bit-exact round trip).
    F64(Vec<f64>),
}

impl SectionData {
    fn type_name(&self) -> &'static str {
        match self {
            SectionData::U32(_) => "u32",
            SectionData::U64(_) => "u64",
            SectionData::F64(_) => "f64",
        }
    }

    fn len(&self) -> usize {
        match self {
            SectionData::U32(v) => v.len(),
            SectionData::U64(v) => v.len(),
            SectionData::F64(v) => v.len(),
        }
    }

    fn byte_len(&self) -> usize {
        match self {
            SectionData::U32(v) => v.len() * 4,
            SectionData::U64(v) => v.len() * 8,
            SectionData::F64(v) => v.len() * 8,
        }
    }
}

/// An iteration-boundary snapshot of one primitive's state.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    primitive: String,
    iteration: u32,
    sections: Vec<Section>,
}

impl Checkpoint {
    /// Empty checkpoint for `primitive` at a completed `iteration`.
    pub fn new(primitive: &str, iteration: u32) -> Self {
        Checkpoint { primitive: primitive.to_string(), iteration, sections: Vec::new() }
    }

    /// The primitive this checkpoint belongs to (e.g. `"bfs"`).
    pub fn primitive(&self) -> &str {
        &self.primitive
    }

    /// The bulk-synchronous iteration the snapshot was taken after.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// The section table, in insertion order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Appends a `u32` section.
    pub fn push_u32(&mut self, name: &str, data: Vec<u32>) -> &mut Self {
        self.sections.push(Section { name: name.to_string(), data: SectionData::U32(data) });
        self
    }

    /// Appends a `u64` section.
    pub fn push_u64(&mut self, name: &str, data: Vec<u64>) -> &mut Self {
        self.sections.push(Section { name: name.to_string(), data: SectionData::U64(data) });
        self
    }

    /// Appends an `f64` section.
    pub fn push_f64(&mut self, name: &str, data: Vec<f64>) -> &mut Self {
        self.sections.push(Section { name: name.to_string(), data: SectionData::F64(data) });
        self
    }

    fn find(&self, name: &str) -> Option<&SectionData> {
        self.sections.iter().find(|s| s.name == name).map(|s| &s.data)
    }

    /// The named `u32` section, or a typed error.
    pub fn u32s(&self, name: &str) -> Result<&[u32], CheckpointError> {
        match self.find(name) {
            Some(SectionData::U32(v)) => Ok(v),
            _ => Err(CheckpointError::MissingSection(name.to_string())),
        }
    }

    /// The named `u64` section, or a typed error.
    pub fn u64s(&self, name: &str) -> Result<&[u64], CheckpointError> {
        match self.find(name) {
            Some(SectionData::U64(v)) => Ok(v),
            _ => Err(CheckpointError::MissingSection(name.to_string())),
        }
    }

    /// The named `f64` section, or a typed error.
    pub fn f64s(&self, name: &str) -> Result<&[f64], CheckpointError> {
        match self.find(name) {
            Some(SectionData::F64(v)) => Ok(v),
            _ => Err(CheckpointError::MissingSection(name.to_string())),
        }
    }

    /// Serializes to the `gunrock-ckpt/v1` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut j = JsonBuilder::new();
        j.begin_object();
        j.field_str("schema", CKPT_SCHEMA_V1);
        j.field_str("primitive", &self.primitive);
        j.field_u64("iteration", self.iteration as u64);
        j.key("sections");
        j.begin_array();
        for s in &self.sections {
            j.begin_object();
            j.field_str("name", &s.name);
            j.field_str("type", s.data.type_name());
            j.field_u64("len", s.data.len() as u64);
            j.end_object();
        }
        j.end_array();
        j.end_object();
        let header = j.finish().into_bytes();

        let payload_len: usize = self.sections.iter().map(|s| s.data.byte_len()).sum();
        let mut out = Vec::with_capacity(8 + 4 + header.len() + payload_len + 8);
        out.extend_from_slice(CKPT_MAGIC_V1);
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(&header);
        for s in &self.sections {
            match &s.data {
                SectionData::U32(v) => {
                    for &x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                SectionData::U64(v) => {
                    for &x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                SectionData::F64(v) => {
                    for &x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
        }
        let checksum = fnv1a(&out[12..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a `gunrock-ckpt/v1` byte stream, verifying magic,
    /// version, structure, and the trailing checksum.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < 8 {
            if bytes.len() >= 6 && &bytes[..6] == b"GRCKPT" {
                return Err(CheckpointError::Truncated { what: "magic" });
            }
            return Err(CheckpointError::BadMagic);
        }
        let magic = &bytes[..8];
        if magic != CKPT_MAGIC_V1 {
            if &magic[..6] == b"GRCKPT" {
                return Err(CheckpointError::VersionMismatch {
                    found: String::from_utf8_lossy(&magic[6..8]).into_owned(),
                });
            }
            return Err(CheckpointError::BadMagic);
        }
        let header_len = bytes
            .get(8..12)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
            .ok_or(CheckpointError::Truncated { what: "header length" })?;
        let header_end = 12usize
            .checked_add(header_len)
            .ok_or_else(|| CheckpointError::Malformed("header length overflows".into()))?;
        let header_bytes = bytes
            .get(12..header_end)
            .ok_or(CheckpointError::Truncated { what: "JSON header" })?;
        let header_text = std::str::from_utf8(header_bytes)
            .map_err(|_| CheckpointError::Malformed("header is not UTF-8".into()))?;
        let header = JsonValue::parse(header_text)
            .map_err(|e| CheckpointError::Malformed(format!("header JSON: {e}")))?;

        let schema = header
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| CheckpointError::Malformed("header missing schema".into()))?;
        if schema != CKPT_SCHEMA_V1 {
            return Err(CheckpointError::VersionMismatch { found: schema.to_string() });
        }
        let primitive = header
            .get("primitive")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| CheckpointError::Malformed("header missing primitive".into()))?
            .to_string();
        let iteration = header
            .get("iteration")
            .and_then(JsonValue::as_u64)
            .filter(|&i| i <= u32::MAX as u64)
            .ok_or_else(|| CheckpointError::Malformed("header missing iteration".into()))?
            as u32;
        let table = header
            .get("sections")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| CheckpointError::Malformed("header missing sections".into()))?;

        // verify the checksum over header + payload before decoding arrays
        if bytes.len() < header_end + 8 {
            return Err(CheckpointError::Truncated { what: "checksum" });
        }
        let body_end = bytes.len() - 8;
        let tail = &bytes[body_end..];
        let stored = u64::from_le_bytes([
            tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
        ]);
        let computed = fnv1a(&bytes[12..body_end]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut sections = Vec::with_capacity(table.len());
        let mut cursor = header_end;
        for entry in table {
            let name = entry
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| CheckpointError::Malformed("section missing name".into()))?
                .to_string();
            let ty = entry
                .get("type")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| CheckpointError::Malformed("section missing type".into()))?;
            let len = entry
                .get("len")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| CheckpointError::Malformed("section missing len".into()))?
                as usize;
            let width = match ty {
                "u32" => 4usize,
                "u64" | "f64" => 8,
                other => {
                    return Err(CheckpointError::Malformed(format!(
                        "unknown section type {other:?}"
                    )))
                }
            };
            let nbytes = len
                .checked_mul(width)
                .ok_or_else(|| CheckpointError::Malformed("section size overflows".into()))?;
            let end = cursor
                .checked_add(nbytes)
                .filter(|&e| e <= body_end)
                .ok_or(CheckpointError::Truncated { what: "section payload" })?;
            let raw = &bytes[cursor..end];
            let data = match ty {
                "u32" => SectionData::U32(
                    raw.chunks_exact(4)
                        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                ),
                "u64" => SectionData::U64(
                    raw.chunks_exact(8)
                        .map(|c| {
                            u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
                        })
                        .collect(),
                ),
                _ => SectionData::F64(
                    raw.chunks_exact(8)
                        .map(|c| {
                            f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
                        })
                        .collect(),
                ),
            };
            sections.push(Section { name, data });
            cursor = end;
        }
        if cursor != body_end {
            return Err(CheckpointError::Malformed(format!(
                "{} payload bytes beyond the declared sections",
                body_end - cursor
            )));
        }
        Ok(Checkpoint { primitive, iteration, sections })
    }

    /// Writes the checkpoint atomically: encode to `path` with a `.tmp`
    /// suffix, fsync, then rename over the destination. If the rename
    /// itself fails, the orphaned tmp file is removed before the error
    /// surfaces, so a failed save leaves the directory exactly as it was.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_inner(path, false)
    }

    /// Fault-injection hook proving the atomicity claim of
    /// [`save`](Self::save): writes and fsyncs the tmp file exactly like
    /// a real save, then *stops before the rename* — the state a process
    /// crash at that instant leaves behind. The tmp file remains on disk
    /// as the crash artifact, the previous checkpoint at `path` (if any)
    /// is untouched and still loads, and the returned `Interrupted` io
    /// error reports the simulated crash to the caller.
    pub fn save_crash_before_rename(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_inner(path, true)
    }

    fn save_inner(
        &self,
        path: &Path,
        crash_before_rename: bool,
    ) -> Result<(), CheckpointError> {
        let bytes = self.encode();
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if crash_before_rename {
            return Err(CheckpointError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected crash before checkpoint rename",
            )));
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(CheckpointError::Io(e));
        }
        Ok(())
    }

    /// Reads and decodes a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Checkpoint::decode(&bytes)
    }
}

/// A primitive's snapshot, declared once as a table: the writer emits
/// its fields in order, and [`Schema::read`] checks a loaded checkpoint
/// against them before any value is used.
#[derive(Debug)]
pub struct Schema {
    /// The primitive the snapshot belongs to.
    pub primitive: &'static str,
    /// The sections, in written order.
    pub fields: &'static [Field],
}

/// A section's name, element type as the header spells it (`"u32"`,
/// `"u64"` or `"f64"`), and [`Kind`].
#[derive(Debug)]
pub struct Field(pub &'static str, pub &'static str, pub Kind);

/// What a [`Field`] holds on a graph of `n` vertices.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// One element per vertex.
    PerVertex,
    /// Vertex ids below `n`, any count.
    VertexIds,
    /// One source per lane: `1..=LANES` vertex ids below `n`.
    Sources,
    /// Lane-major values, `n` per source.
    Lanes,
    /// Anything: the primitive checks it.
    List,
    /// Exactly these named slots, in order.
    Slots(&'static [Slot]),
}

/// A named value of a slot section.
#[derive(Clone, Copy, Debug)]
pub enum Slot {
    /// Any value.
    Plain(&'static str),
    /// A `u32` vertex id below `n`.
    Vertex(&'static str),
    /// A retired `u32` setting and the one value it may still hold.
    Pinned(&'static str, u32),
}

impl Slot {
    fn name(self) -> &'static str {
        match self {
            Slot::Plain(name) | Slot::Vertex(name) | Slot::Pinned(name, _) => name,
        }
    }
}

impl Schema {
    /// Checks `ckpt` for a graph of `n` vertices: the primitive, every
    /// declared section with its type, per-vertex and lane-major lengths,
    /// vertex ids, slot counts and pinned settings. Undeclared sections
    /// are ignored.
    pub fn read<'c>(
        &'static self,
        ckpt: &'c Checkpoint,
        n: usize,
    ) -> Result<Snapshot<'c>, CheckpointError> {
        if ckpt.primitive != self.primitive {
            let (expected, found) = (self.primitive.to_string(), ckpt.primitive.clone());
            return Err(CheckpointError::WrongPrimitive { expected, found });
        }
        let snap = Snapshot { schema: self, ckpt };
        let sources = self.fields.iter().find(|f| matches!(f.2, Kind::Sources));
        let lanes = sources.map_or(Ok(0), |f| snap.data(f.0).map(SectionData::len))?;
        // slot sections first: a rejection names a retired setting, not a
        // section the setting shaped
        let (slots, rest): (Vec<_>, _) =
            self.fields.iter().partition(|f| matches!(f.2, Kind::Slots(_)));
        for Field(name, _, kind) in slots.into_iter().chain(rest) {
            let data = snap.data(name)?;
            let (len, ids) = (data.len(), u32::slice(data).unwrap_or(&[]));
            let vertex = |v: &u32| (*v as usize) < n;
            let fits = match *kind {
                Kind::PerVertex => len == n,
                Kind::VertexIds => ids.iter().all(vertex),
                Kind::Sources => (1..=LANES).contains(&len) && ids.iter().all(vertex),
                Kind::Lanes => lanes.checked_mul(n) == Some(len),
                Kind::List => true,
                Kind::Slots(slots) => {
                    let mut named = slots.iter().zip(ids);
                    if let Some((s, v)) =
                        named.find(|(s, v)| matches!(s, Slot::Pinned(_, only) if only != *v))
                    {
                        let why = format!("written with {} = {v}, a retired setting", s.name());
                        return Err(CheckpointError::Malformed(why));
                    }
                    len == slots.len()
                        && slots
                            .iter()
                            .zip(ids)
                            .all(|(s, v)| !matches!(s, Slot::Vertex(_)) || vertex(v))
                }
            };
            if !fits {
                let why =
                    format!("{name} ({len} values) does not fit {kind:?} on {n} vertices");
                return Err(CheckpointError::Malformed(why));
            }
        }
        Ok(snap)
    }

    /// A writer for the snapshot taken after `iteration`.
    pub fn writer(&'static self, iteration: u32) -> SnapshotWriter {
        SnapshotWriter { schema: self, ckpt: Checkpoint::new(self.primitive, iteration) }
    }
}

/// A checkpoint its [`Schema`] accepted, read by section and slot name.
#[derive(Debug)]
pub struct Snapshot<'c> {
    schema: &'static Schema,
    ckpt: &'c Checkpoint,
}

impl<'c> Snapshot<'c> {
    /// The bulk-synchronous iteration the snapshot was taken after.
    pub fn iteration(&self) -> u32 {
        self.ckpt.iteration
    }

    /// The values of the section `name`.
    pub fn section<T: Element>(&self, name: &str) -> Result<&'c [T], CheckpointError> {
        let values = self.data(name).ok().and_then(T::slice);
        values.ok_or_else(|| CheckpointError::MissingSection(name.to_string()))
    }

    /// The value of the slot `name`.
    pub fn slot<T: Element>(&self, name: &str) -> Result<T, CheckpointError> {
        let at = self.schema.fields.iter().find_map(|Field(section, _, kind)| match kind {
            Kind::Slots(slots) => Some((section, slots.iter().position(|s| s.name() == name)?)),
            _ => None,
        });
        let value = at.and_then(|(section, i)| self.section(section).ok()?.get(i).copied());
        value.ok_or_else(|| CheckpointError::MissingSection(name.to_string()))
    }

    /// The declared section `name`, present with its declared type.
    fn data(&self, name: &str) -> Result<&'c SectionData, CheckpointError> {
        let field = self.schema.fields.iter().find(|f| f.0 == name);
        let data = field.and_then(|f| self.ckpt.find(name).filter(|d| d.type_name() == f.1));
        data.ok_or_else(|| CheckpointError::MissingSection(name.to_string()))
    }
}

/// Writes a snapshot for its [`Schema`], filling in pinned slots.
#[derive(Debug)]
pub struct SnapshotWriter {
    schema: &'static Schema,
    ckpt: Checkpoint,
}

impl SnapshotWriter {
    /// The section `name`.
    pub fn section<T: Element>(mut self, name: &str, values: Vec<T>) -> Self {
        self.ckpt.sections.push(Section { name: name.to_string(), data: T::wrap(values) });
        self
    }

    /// The slot section `name`, from its unpinned slots' named values in
    /// declared order.
    pub fn slots<T: Element + From<u32>>(self, name: &str, values: &[(&str, T)]) -> Self {
        let slots = match self.schema.fields.iter().find(|f| f.0 == name) {
            Some(Field(_, _, Kind::Slots(slots))) => *slots,
            _ => &[],
        };
        let mut given = values.iter();
        let packed: Vec<T> = slots
            .iter()
            .map_while(|slot| match *slot {
                Slot::Pinned(_, only) => Some(T::from(only)),
                _ => given.next().filter(|(n, _)| *n == slot.name()).map(|&(_, v)| v),
            })
            .collect();
        let fits = packed.len() == slots.len() && given.next().is_none();
        assert!(fits, "{}: {name} slots are not the declared ones", self.ckpt.primitive);
        self.section(name, packed)
    }

    /// The finished snapshot; its sections must be the declared ones, in
    /// declared order.
    pub fn finish(self) -> Checkpoint {
        let written = self.ckpt.sections.iter().map(|s| (s.name.as_str(), s.data.type_name()));
        let fits = written.eq(self.schema.fields.iter().map(|f| (f.0, f.1)));
        assert!(fits, "{}: sections are not the declared ones", self.ckpt.primitive);
        self.ckpt
    }
}

/// A section element type: `u32`, `u64` or `f64`.
pub trait Element: Copy {
    /// The section data holding `values`.
    fn wrap(values: Vec<Self>) -> SectionData;
    /// The values of `data`, when it holds this type.
    fn slice(data: &SectionData) -> Option<&[Self]>;
}

macro_rules! element {
    ($($t:ty => $variant:ident),*) => {$(
        impl Element for $t {
            fn wrap(values: Vec<$t>) -> SectionData {
                SectionData::$variant(values)
            }
            fn slice(data: &SectionData) -> Option<&[$t]> {
                match data {
                    SectionData::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

element!(u32 => U32, u64 => U64, f64 => F64);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new("bfs", 7);
        c.push_u32("frontier", vec![3, 1, 4, 1, 5]);
        c.push_u32("labels", vec![0, u32::MAX, 2]);
        c.push_u64("meta", vec![42, u64::MAX]);
        c.push_f64("scores", vec![0.15, -1.0, f64::MIN_POSITIVE]);
        c
    }

    #[test]
    fn round_trip_preserves_everything() {
        let c = sample();
        let back = Checkpoint::decode(&c.encode()).expect("own output decodes");
        assert_eq!(back, c);
        assert_eq!(back.primitive(), "bfs");
        assert_eq!(back.iteration(), 7);
        assert_eq!(back.u32s("frontier").expect("present"), &[3, 1, 4, 1, 5]);
        assert_eq!(back.u64s("meta").expect("present"), &[42, u64::MAX]);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let c = Checkpoint::new("cc", 0);
        assert_eq!(Checkpoint::decode(&c.encode()).expect("decodes"), c);
    }

    #[test]
    fn rejects_bad_magic_and_version_mismatch() {
        assert!(matches!(
            Checkpoint::decode(b"NOTCKPT0xxxxxxxxxxxx"),
            Err(CheckpointError::BadMagic)
        ));
        let mut bytes = sample().encode();
        bytes[6] = b'9';
        bytes[7] = b'9';
        match Checkpoint::decode(&bytes) {
            Err(CheckpointError::VersionMismatch { found }) => assert_eq!(found, "99"),
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "accepted a {cut}-byte prefix of a {}-byte checkpoint",
                bytes.len()
            );
        }
    }

    #[test]
    fn rejects_flipped_bits() {
        let bytes = sample().encode();
        for pos in [12, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(Checkpoint::decode(&bad).is_err(), "accepted a flip at byte {pos}");
        }
    }

    #[test]
    fn missing_and_mistyped_sections_are_typed_errors() {
        let c = sample();
        assert!(matches!(c.u32s("nope"), Err(CheckpointError::MissingSection(_))));
        assert!(matches!(c.f64s("frontier"), Err(CheckpointError::MissingSection(_))));
        assert!(matches!(TOY.read(&c, 5), Err(CheckpointError::WrongPrimitive { .. })));
    }

    static TOY: Schema = Schema {
        primitive: "toy",
        fields: &[
            Field("dist", "u32", Kind::PerVertex),
            Field("frontier", "u32", Kind::VertexIds),
            Field(
                "scalars",
                "u32",
                Kind::Slots(&[
                    Slot::Vertex("src"),
                    Slot::Plain("level"),
                    Slot::Pinned("old", 1),
                ]),
            ),
            Field("params", "f64", Kind::Slots(&[Slot::Plain("alpha")])),
        ],
    };

    static LANED: Schema = Schema {
        primitive: "laned",
        fields: &[Field("depths", "u32", Kind::Lanes), Field("sources", "u32", Kind::Sources)],
    };

    /// A `toy` snapshot of a 3-vertex graph, rebuilt with `edit` applied
    /// to its scalars.
    fn toy(edit: impl Fn(&mut Vec<u32>)) -> Checkpoint {
        let c = TOY
            .writer(4)
            .section("dist", vec![0u32, 1, 2])
            .section("frontier", vec![2u32])
            .slots("scalars", &[("src", 0u32), ("level", 3)])
            .slots("params", &[("alpha", 0.5)])
            .finish();
        let mut scalars = c.u32s("scalars").expect("written").to_vec();
        edit(&mut scalars);
        let mut out = Checkpoint::new("toy", 4);
        out.push_u32("dist", vec![0, 1, 2]).push_u32("frontier", vec![2]);
        out.push_u32("scalars", scalars).push_f64("params", vec![0.5]);
        out
    }

    fn malformed(r: Result<Snapshot<'_>, CheckpointError>) -> String {
        match r {
            Err(CheckpointError::Malformed(msg)) => msg,
            other => panic!("expected a malformed checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn schema_writes_in_declared_order_and_reads_by_name() {
        let c = toy(|_| {});
        assert_eq!(c.u32s("scalars").expect("scalars"), &[0, 3, 1], "pinned slot filled in");
        let snap = TOY.read(&c, 3).expect("its own snapshot reads back");
        assert_eq!(snap.iteration(), 4);
        assert_eq!(snap.slot::<u32>("level").expect("level"), 3);
        assert_eq!(snap.slot::<f64>("alpha").expect("alpha"), 0.5);
        assert_eq!(snap.section::<u32>("frontier").expect("frontier"), &[2]);
        assert!(snap.slot::<u64>("level").is_err(), "a u32 slot is not a u64");
        assert!(snap.section::<u32>("undeclared").is_err());
    }

    #[test]
    fn schema_read_rejects_what_does_not_fit_the_graph() {
        let c = toy(|_| {});
        assert!(malformed(TOY.read(&c, 4)).contains("dist"), "length");
        assert!(malformed(TOY.read(&c, 2)).contains("dist"));
        assert!(malformed(TOY.read(&toy(|s| s[0] = 3), 3)).contains("scalars"), "vertex slot");
        let count = malformed(TOY.read(&toy(|s| s.push(0)), 3));
        assert!(count.contains("scalars (4 values)"), "slot count: {count}");
        let retired = malformed(TOY.read(&toy(|s| s[2] = 0), 3));
        assert!(retired.contains("old = 0"), "pinned slot: {retired}");
        let mut ids = Checkpoint::new("toy", 4);
        ids.push_u32("dist", vec![0, 1, 2]).push_u32("frontier", vec![3]);
        ids.push_u32("scalars", vec![0, 3, 1]).push_f64("params", vec![0.5]);
        assert!(malformed(TOY.read(&ids, 3)).contains("frontier"), "vertex id");
        let mut mistyped = ids.clone();
        mistyped.sections[3].data = SectionData::U64(vec![1]);
        assert!(matches!(TOY.read(&mistyped, 3), Err(CheckpointError::MissingSection(_))));
    }

    #[test]
    fn lane_sections_follow_the_source_count() {
        let laned = |lanes: usize, depths: usize| {
            let mut c = Checkpoint::new("laned", 1);
            c.push_u32("depths", vec![0; depths]).push_u32("sources", vec![0; lanes]);
            c
        };
        assert!(LANED.read(&laned(2, 6), 3).is_ok());
        assert!(malformed(LANED.read(&laned(2, 5), 3)).contains("depths"));
        assert!(malformed(LANED.read(&laned(0, 0), 3)).contains("sources"));
        assert!(
            malformed(LANED.read(&laned(LANES + 1, 3 * (LANES + 1)), 3)).contains("sources")
        );
    }

    #[test]
    #[should_panic(expected = "not the declared ones")]
    fn writer_refuses_sections_out_of_declared_order() {
        let _ = TOY
            .writer(1)
            .section("frontier", vec![0u32])
            .section("dist", vec![0u32])
            .slots("scalars", &[("src", 0u32), ("level", 0)])
            .slots("params", &[("alpha", 0.5)])
            .finish();
    }

    #[test]
    #[should_panic(expected = "slots are not the declared ones")]
    fn writer_refuses_misnamed_slots() {
        let _ = TOY.writer(1).slots("scalars", &[("level", 0u32), ("src", 0)]);
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let dir =
            std::env::temp_dir().join(format!("gunrock-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bfs.ckpt");
        let c = sample();
        c.save(&path).expect("save");
        assert_eq!(Checkpoint::load(&path).expect("load"), c);
        // the tmp file must not linger after a successful save
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_before_rename_preserves_the_previous_snapshot() {
        let dir =
            std::env::temp_dir().join(format!("gunrock-ckpt-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bfs.ckpt");
        let first = sample();
        first.save(&path).expect("save");
        let golden = std::fs::read(&path).expect("read");

        let mut second = sample();
        second.push_u32("extra", vec![9, 9, 9]);
        let err = second.save_crash_before_rename(&path).expect_err("must report the crash");
        assert!(matches!(err, CheckpointError::Io(_)));
        // the crash artifact exists, fully written...
        let tmp = path.with_extension("ckpt.tmp");
        assert!(tmp.exists(), "crash leaves the tmp file behind");
        // ...and the resumable file still holds the previous snapshot,
        // byte for byte
        assert_eq!(std::fs::read(&path).expect("read"), golden);
        assert_eq!(Checkpoint::load(&path).expect("load"), first);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The vendored proptest has no regex string strategies; build short
    /// lowercase names from byte vectors instead.
    fn arb_name() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..26, 1..12)
            .prop_map(|bytes| bytes.into_iter().map(|b| (b'a' + b) as char).collect())
    }

    proptest! {
        /// Satellite S3: arbitrary section contents round-trip exactly
        /// (including NaN bit patterns in f64 sections), and appending or
        /// removing one byte is always rejected.
        #[test]
        fn prop_round_trip(
            primitive in arb_name(),
            iteration in 0u32..u32::MAX,
            u32s in proptest::collection::vec(any::<u32>(), 0..200),
            u64s in proptest::collection::vec(any::<u64>(), 0..100),
            f64s in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            let f64s: Vec<f64> = f64s.into_iter().map(f64::from_bits).collect();
            let mut c = Checkpoint::new(&primitive, iteration);
            c.push_u32("frontier", u32s.clone());
            c.push_u64("counters", u64s.clone());
            c.push_f64("values", f64s.clone());
            let bytes = c.encode();
            let back = Checkpoint::decode(&bytes).expect("round trip");
            prop_assert_eq!(back.primitive(), primitive.as_str());
            prop_assert_eq!(back.iteration(), iteration);
            prop_assert_eq!(back.u32s("frontier").expect("u32s"), &u32s[..]);
            prop_assert_eq!(back.u64s("counters").expect("u64s"), &u64s[..]);
            // compare f64 *bits* so NaN payloads count as equal
            let back_bits: Vec<u64> =
                back.f64s("values").expect("f64s").iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = f64s.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(back_bits, want_bits);
            // one byte short is truncated; one byte extra breaks the checksum
            prop_assert!(Checkpoint::decode(&bytes[..bytes.len() - 1]).is_err());
            let mut padded = bytes.clone();
            padded.push(0xAB);
            prop_assert!(Checkpoint::decode(&padded).is_err());
        }

        /// Any mangled version tag in the magic is a typed rejection.
        #[test]
        fn prop_version_mismatch(a in 0u8..62, b in 0u8..62) {
            let digit = |x: u8| match x {
                0..=9 => b'0' + x,
                10..=35 => b'a' + (x - 10),
                _ => b'A' + (x - 36),
            };
            let v = [digit(a), digit(b)];
            prop_assume!(&v != b"01");
            let mut bytes = Checkpoint::new("pr", 1).encode();
            bytes[6..8].copy_from_slice(&v);
            prop_assert!(matches!(
                Checkpoint::decode(&bytes),
                Err(CheckpointError::VersionMismatch { .. })
            ));
        }
    }
}
