//! The five audit passes of `gunrock-lint`.
//!
//! Each pass walks the scanned lines of one file and emits findings.
//! Justification rules are deliberately positional — a marker comment
//! must be on the offending line, in the contiguous comment/attribute
//! block directly above it, or (for ORDERING/CAST) anywhere between the
//! use and its enclosing `fn` header, including the fn's doc block.
//! That keeps the audit trail next to the code it justifies instead of
//! in a far-away allowlist.

use crate::scanner::{find_token, has_token, Line};

/// Which audit pass produced a finding. The discriminants double as the
/// process exit-code bits, so CI can tell at a glance which gate failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// `unsafe` without a `// SAFETY:` justification (exit bit 1).
    Safety,
    /// `.unwrap()` / `.expect(` / `panic!` in production modules (bit 2).
    Panic,
    /// `Ordering::` without `// ORDERING:` outside atomics.rs (bit 4).
    Ordering,
    /// Truncating `as u32` / `as usize` in hot paths without `// CAST:`
    /// (bit 8).
    Cast,
    /// Heap allocation (`Vec::new()` / `vec![` / `with_capacity(` /
    /// `.collect(`) in zero-allocation operator hot paths without an
    /// `// ALLOC-OK(reason)` justification (bit 16).
    Alloc,
}

impl Pass {
    pub fn name(self) -> &'static str {
        match self {
            Pass::Safety => "safety",
            Pass::Panic => "panic",
            Pass::Ordering => "ordering",
            Pass::Cast => "cast",
            Pass::Alloc => "alloc",
        }
    }

    pub fn exit_bit(self) -> i32 {
        match self {
            Pass::Safety => 1,
            Pass::Panic => 2,
            Pass::Ordering => 4,
            Pass::Cast => 8,
            Pass::Alloc => 16,
        }
    }
}

/// One lint violation, pointing at a file:line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub pass: Pass,
    pub file: String,
    pub line: usize,
    pub message: String,
    pub snippet: String,
}

/// Per-pass scoping. Paths are `/`-separated and relative to the repo
/// root; a file is in scope if its path starts with any scope prefix
/// and matches no exempt prefix.
pub struct Config {
    /// Modules where `.unwrap()`/`.expect()`/`panic!` are denied.
    pub panic_scope: Vec<String>,
    pub panic_exempt: Vec<String>,
    /// Modules where every `Ordering::` use needs an `// ORDERING:` note.
    pub ordering_scope: Vec<String>,
    pub ordering_exempt: Vec<String>,
    /// Hot-path modules where `as u32`/`as usize` needs a `// CAST:` note.
    pub cast_scope: Vec<String>,
    /// Zero-allocation operator modules where heap allocation needs an
    /// `// ALLOC-OK(reason)` note (steady-state iterations must come
    /// from the buffer pool instead).
    pub alloc_scope: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            // all production crates; bench is dev tooling and tests/ is
            // the integration harness — panics there are the point
            panic_scope: vec![
                "crates/graph/src".into(),
                "crates/engine/src".into(),
                "crates/core/src".into(),
                "crates/algos/src".into(),
                "crates/baselines/src".into(),
                "crates/cli/src".into(),
                "crates/server/src".into(),
            ],
            panic_exempt: vec![],
            ordering_scope: vec![
                "crates/graph/src".into(),
                "crates/engine/src".into(),
                "crates/core/src".into(),
                "crates/algos/src".into(),
                "crates/baselines/src".into(),
                "crates/cli/src".into(),
                "crates/server/src".into(),
            ],
            // atomics.rs IS the memory-model module: its doc comments
            // carry the ordering arguments for the whole wrapper API
            ordering_exempt: vec!["crates/engine/src/atomics.rs".into()],
            cast_scope: vec![
                "crates/engine/src/scan.rs".into(),
                "crates/engine/src/compact.rs".into(),
                "crates/baselines/src/sort.rs".into(),
                "crates/engine/src/search.rs".into(),
                "crates/engine/src/bitmap.rs".into(),
                "crates/engine/src/lanes.rs".into(),
                "crates/engine/src/frontier.rs".into(),
                "crates/engine/src/unsafe_slice.rs".into(),
                "crates/core/src/advance".into(),
                "crates/core/src/filter".into(),
                "crates/core/src/util.rs".into(),
            ],
            // the operators the zero-allocation advance work (§4.2/§4.4)
            // pooled: new allocations there must argue why they are not
            // on the steady-state path. bitmap.rs is the word-frontier
            // storage: steady state must draw words from the pool, so
            // any direct allocation there needs the same argument
            // budget.rs and watchdog.rs sit on the governance path every
            // pooled checkout crosses: allocations there would charge the
            // very accounting they implement, so each one must be argued.
            // lanes.rs is the MS-BFS lane-mask storage (advance covers
            // advance/msbfs.rs): the batched sweep touches its words every
            // edge, so steady state must never allocate there either.
            // enact.rs is the iteration boundary every enact loop crosses
            // once per iteration (thousands of times per high-diameter
            // query): snapshots are built by the caller's closure, the
            // boundary itself must not allocate. priority_queue.rs is
            // SSSP's near-far split and refill, one pass each per
            // iteration: the near slice reuses pooled storage
            alloc_scope: vec![
                "crates/core/src/advance".into(),
                "crates/core/src/compute.rs".into(),
                "crates/core/src/enact.rs".into(),
                "crates/core/src/filter".into(),
                "crates/core/src/isolate.rs".into(),
                "crates/core/src/priority_queue.rs".into(),
                "crates/engine/src/bitmap.rs".into(),
                "crates/engine/src/lanes.rs".into(),
                "crates/engine/src/budget.rs".into(),
                "crates/engine/src/watchdog.rs".into(),
            ],
        }
    }
}

fn in_scope(path: &str, scope: &[String], exempt: &[String]) -> bool {
    scope.iter().any(|p| path.starts_with(p.as_str()))
        && !exempt.iter().any(|p| path.starts_with(p.as_str()))
}

/// Runs every pass over one scanned file.
pub fn lint_file(path: &str, lines: &[Line], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    safety_pass(path, lines, &mut out);
    if in_scope(path, &cfg.panic_scope, &cfg.panic_exempt) {
        panic_pass(path, lines, &mut out);
    }
    if in_scope(path, &cfg.ordering_scope, &cfg.ordering_exempt) {
        marker_pass(path, lines, Pass::Ordering, "Ordering::", "ORDERING:", &mut out);
    }
    if in_scope(path, &cfg.cast_scope, &[]) {
        cast_pass(path, lines, &mut out);
    }
    if in_scope(path, &cfg.alloc_scope, &[]) {
        alloc_pass(path, lines, &mut out);
    }
    out
}

/// True if the contiguous comment/attribute block directly above
/// `lines[idx]` (or the line itself) contains `marker`. Shared with the
/// audit passes, whose `AUDIT-OK(reason)` hatch uses the same placement
/// rule as `ALLOC-OK`.
pub(crate) fn block_above_has(lines: &[Line], idx: usize, marker: &str) -> bool {
    if lines[idx].comment.contains(marker) {
        return true;
    }
    for j in (0..idx).rev() {
        let l = &lines[j];
        if l.comment.contains(marker) {
            return true;
        }
        let code = l.code.trim();
        let comment_only = code.is_empty() && !l.comment.is_empty();
        let attr_only = code.starts_with("#[") || code.starts_with("#!");
        if !(comment_only || attr_only) {
            return false;
        }
    }
    false
}

/// Concatenated comment text of `lines[idx]` and the contiguous
/// comment/attribute block directly above it — the same region
/// `block_above_has` searches, surfaced as text so the audit passes can
/// inspect what a justification *claims*, not just that one exists.
pub(crate) fn block_above_text(lines: &[Line], idx: usize) -> String {
    let mut parts = vec![lines[idx].comment.clone()];
    for j in (0..idx).rev() {
        let l = &lines[j];
        let code = l.code.trim();
        let comment_only = code.is_empty() && !l.comment.is_empty();
        let attr_only = code.starts_with("#[") || code.starts_with("#!");
        if !(comment_only || attr_only) {
            break;
        }
        parts.push(l.comment.clone());
    }
    parts.reverse();
    parts.join(" ")
}

/// True if `marker` appears between `lines[idx]` and its enclosing `fn`
/// header (inclusive of the fn's contiguous doc/attribute block).
pub(crate) fn fn_scope_has(lines: &[Line], idx: usize, marker: &str) -> bool {
    if lines[idx].comment.contains(marker) {
        return true;
    }
    let mut above_fn = false;
    for j in (0..idx).rev() {
        let l = &lines[j];
        if l.comment.contains(marker) {
            return true;
        }
        if above_fn {
            let code = l.code.trim();
            let passthrough =
                code.is_empty() || code.starts_with("#[") || code.starts_with("#!");
            if !passthrough {
                return false;
            }
        } else if has_token(&l.code, "fn") {
            above_fn = true;
        }
    }
    false
}

/// Every `unsafe` block, fn, or impl needs a `// SAFETY:` comment on the
/// line or directly above it; `unsafe fn` also accepts a `# Safety` doc
/// section. Applies to test code too — tests argue safety like anyone
/// else.
fn safety_pass(path: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        let Some(pos) = find_token(&line.code, "unsafe", 0) else { continue };
        // only the first `unsafe` on a line anchors a finding; nested
        // same-line occurrences share its justification
        let rest = line.code[pos + "unsafe".len()..].trim_start();
        let is_fn_decl = rest.starts_with("fn");
        let kind = if is_fn_decl {
            "unsafe fn"
        } else if rest.starts_with("impl") {
            "unsafe impl"
        } else if rest.starts_with("trait") {
            "unsafe trait"
        } else {
            "unsafe block"
        };
        let justified = block_above_has(lines, idx, "SAFETY:")
            || (is_fn_decl && block_above_has(lines, idx, "# Safety"));
        if !justified {
            out.push(Finding {
                pass: Pass::Safety,
                file: path.to_string(),
                line: line.number,
                message: format!(
                    "{kind} without a `// SAFETY:` comment on the preceding lines{}",
                    if is_fn_decl { " (or a `# Safety` doc section)" } else { "" }
                ),
                snippet: line.code.trim().to_string(),
            });
        }
    }
}

/// `.unwrap()` / `.expect(` / `panic!` are denied in production code.
/// The escape hatch is a `LINT-ALLOW(panic): reason` comment on the line
/// or directly above — it must carry a reason, which is the point.
fn panic_pass(path: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut hits: Vec<&str> = Vec::new();
        if line.code.contains(".unwrap()") {
            hits.push(".unwrap()");
        }
        if line.code.contains(".expect(") {
            hits.push(".expect(");
        }
        if has_token(&line.code, "panic") && line.code.contains("panic!") {
            hits.push("panic!");
        }
        if hits.is_empty() || block_above_has(lines, idx, "LINT-ALLOW(panic)") {
            continue;
        }
        for hit in hits {
            out.push(Finding {
                pass: Pass::Panic,
                file: path.to_string(),
                line: line.number,
                message: format!(
                    "`{hit}` in a production module — return a GunrockError (or add \
                     `// LINT-ALLOW(panic): reason` if aborting is the contract)"
                ),
                snippet: line.code.trim().to_string(),
            });
        }
    }
}

/// Shared shape of the ORDERING pass: each `needle` use outside test
/// code needs `marker` within its function scope. `std::cmp::Ordering`
/// shares the atomics type's name but has nothing to justify, so
/// `cmp::`-qualified uses are skipped. Import lines (`use ...` and
/// `pub use ...` re-exports, e.g. `use std::sync::atomic::Ordering::Relaxed;`)
/// name the type without using it, so they are skipped too — there is
/// nothing at an import to justify, and module-level imports have no
/// enclosing fn to carry a note anyway.
fn marker_pass(
    path: &str,
    lines: &[Line],
    pass: Pass,
    needle: &str,
    marker: &str,
    out: &mut Vec<Finding>,
) {
    let is_atomic_use = |code: &str| {
        let mut from = 0;
        while let Some(pos) = code[from..].find(needle).map(|p| from + p) {
            if !code[..pos].ends_with("cmp::") {
                return true;
            }
            from = pos + needle.len();
        }
        false
    };
    let is_import = |code: &str| {
        let trimmed = code.trim_start();
        let after_vis = trimmed
            .strip_prefix("pub(crate) ")
            .or_else(|| trimmed.strip_prefix("pub(super) "))
            .or_else(|| trimmed.strip_prefix("pub "))
            .unwrap_or(trimmed);
        after_vis.starts_with("use ")
    };
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || is_import(&line.code) || !is_atomic_use(&line.code) {
            continue;
        }
        if !fn_scope_has(lines, idx, marker) {
            out.push(Finding {
                pass,
                file: path.to_string(),
                line: line.number,
                message: format!(
                    "`{needle}` use without a `// {marker}` justification in the \
                     enclosing function"
                ),
                snippet: line.code.trim().to_string(),
            });
        }
    }
}

/// Truncating `as u32` / `as usize` casts in hot-path modules need a
/// checked conversion instead, or a `// CAST:` note arguing why the
/// value fits.
fn cast_pass(path: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut found: Vec<&str> = Vec::new();
        for target in ["u32", "usize"] {
            let mut from = 0;
            while let Some(pos) = find_token(&line.code, "as", from) {
                from = pos + 2;
                let rest = line.code[pos + 2..].trim_start();
                if rest.starts_with(target)
                    && !rest[target.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    found.push(target);
                    break;
                }
            }
        }
        if found.is_empty() || fn_scope_has(lines, idx, "CAST:") {
            continue;
        }
        for target in found {
            out.push(Finding {
                pass: Pass::Cast,
                file: path.to_string(),
                line: line.number,
                message: format!(
                    "`as {target}` in a hot-path module can truncate — use a checked \
                     conversion or add `// CAST:` explaining why the value fits"
                ),
                snippet: line.code.trim().to_string(),
            });
        }
    }
}

/// Heap allocations are denied in the pooled operator hot paths: scratch
/// and output buffers must come from the context's `BufferPool` so
/// steady-state iterations allocate nothing. The escape hatch is an
/// `// ALLOC-OK(reason)` comment on the line or directly above — used
/// for per-launch allocations off the steady-state path (large-frontier
/// merges, overflow fallbacks, effect-only sinks).
fn alloc_pass(path: &str, lines: &[Line], out: &mut Vec<Finding>) {
    const PATTERNS: [&str; 4] = ["Vec::new()", "vec![", "with_capacity(", ".collect("];
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let hits: Vec<&str> =
            PATTERNS.iter().copied().filter(|p| line.code.contains(p)).collect();
        if hits.is_empty() || block_above_has(lines, idx, "ALLOC-OK(") {
            continue;
        }
        for hit in hits {
            out.push(Finding {
                pass: Pass::Alloc,
                file: path.to_string(),
                line: line.number,
                message: format!(
                    "`{hit}` in a zero-allocation operator hot path — take the buffer \
                     from `ctx.pool()` (or add `// ALLOC-OK(reason)` if this launch is \
                     off the steady-state path)"
                ),
                snippet: line.code.trim().to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        lint_file(path, &scan(src), &Config::default())
    }

    #[test]
    fn unsafe_block_without_safety_comment_is_flagged() {
        let f =
            run("crates/engine/src/x.rs", "fn f(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, Pass::Safety);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_inline_passes() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p = 0 };\n    unsafe { *p = 1 }; // SAFETY: still valid\n}\n";
        assert!(run("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_reaches_over_attributes() {
        let src = "// SAFETY: vec is fully initialized below\n#[allow(clippy::uninit_vec)]\nunsafe {\n    v.set_len(n);\n}\n";
        assert!(run("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_accepts_safety_doc_section() {
        let src = "/// Writes through the pointer.\n///\n/// # Safety\n/// `p` must be valid for writes.\npub unsafe fn poke(p: *mut u8) { }\n";
        assert!(run("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_production_flagged_but_test_code_exempt() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, Pass::Panic);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn lint_allow_escape_hatch() {
        let src = "fn f() {\n    // LINT-ALLOW(panic): fault injector aborts by design\n    panic!(\"injected\");\n}\n";
        assert!(run("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_outside_scope_is_ignored() {
        assert!(run("crates/bench/src/x.rs", "fn f() { x.unwrap(); }\n").is_empty());
    }

    #[test]
    fn ordering_needs_justification_in_fn_scope() {
        let bad = "fn f(a: &AtomicU32) {\n    a.load(Ordering::Relaxed);\n}\n";
        let f = run("crates/engine/src/x.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, Pass::Ordering);

        let good = "// ORDERING: Relaxed is fine, counter is advisory.\nfn f(a: &AtomicU32) {\n    a.load(Ordering::Relaxed);\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert!(run("crates/engine/src/x.rs", good).is_empty());
    }

    #[test]
    fn ordering_marker_does_not_leak_across_fns() {
        let src = "// ORDERING: justified here.\nfn f(a: &AtomicU32) { a.load(Ordering::Relaxed); }\n\nfn g(a: &AtomicU32) {\n    a.load(Ordering::Acquire);\n}\n";
        let f = run("crates/engine/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_ordering() {
        let src = "fn f(a: u32, b: u32) {\n    match a.cmp(&b) { std::cmp::Ordering::Less => {}, _ => {} }\n}\n";
        assert!(run("crates/algos/src/x.rs", src).is_empty());
        let mixed = "fn f(x: &A) { x.load(Ordering::Relaxed); match std::cmp::Ordering::Less { _ => {} } }\n";
        assert_eq!(run("crates/engine/src/x.rs", mixed).len(), 1);
    }

    #[test]
    fn ordering_imports_and_reexports_are_not_sites() {
        // regression: `use std::sync::atomic::Ordering::Relaxed;` names
        // the type at module level, where no fn scope exists to carry a
        // note — imports must not count as ordering sites
        let src = "use std::sync::atomic::Ordering::Relaxed;\n\
                   pub use std::sync::atomic::Ordering::{Acquire, Release};\n\
                   pub(crate) use std::sync::atomic::Ordering::SeqCst;\n\
                   fn f(a: &AtomicU32) {\n    a.load(Ordering::Relaxed);\n}\n";
        let f = run("crates/engine/src/x.rs", src);
        assert_eq!(f.len(), 1, "only the real site is flagged: {f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn atomics_module_is_ordering_exempt() {
        let src = "fn f(a: &AtomicU32) { a.load(Ordering::Relaxed); }\n";
        assert!(run("crates/engine/src/atomics.rs", src).is_empty());
    }

    #[test]
    fn cast_pass_flags_hot_path_truncation() {
        let f = run("crates/engine/src/scan.rs", "fn f(x: u64) -> u32 { x as u32 }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, Pass::Cast);

        let good = "fn f(x: u64) -> u32 {\n    // CAST: x < u32::MAX asserted by the caller.\n    x as u32\n}\n";
        assert!(run("crates/engine/src/scan.rs", good).is_empty());
    }

    #[test]
    fn cast_pass_ignores_cold_modules_and_other_widths() {
        assert!(run("crates/algos/src/bfs.rs", "fn f(x: u64) -> u32 { x as u32 }\n").is_empty());
        assert!(
            run("crates/engine/src/scan.rs", "fn f(x: u32) -> u64 { x as u64 }\n").is_empty()
        );
    }

    #[test]
    fn strings_do_not_trip_passes() {
        let src = "fn f() { log(\"panic! unsafe Ordering::Relaxed as u32\"); }\n";
        assert!(run("crates/engine/src/scan.rs", src).is_empty());
    }

    #[test]
    fn alloc_pass_flags_hot_path_allocation() {
        let f = run(
            "crates/core/src/advance/x.rs",
            "fn f() {\n    let v: Vec<u32> = Vec::new();\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, Pass::Alloc);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn alloc_pass_flags_every_allocation_form() {
        let src = "fn f() {\n    let a = vec![0u32; 4];\n    let b = Vec::<u32>::with_capacity(4);\n    let c: Vec<u32> = (0..4).collect();\n}\n";
        let f = run("crates/core/src/filter/x.rs", src);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|x| x.pass == Pass::Alloc));
    }

    #[test]
    fn alloc_ok_escape_hatch_inline_or_above() {
        let src = "fn f() {\n    let a = Vec::new(); // ALLOC-OK(effect-only sink, never grows)\n    // ALLOC-OK(u32-overflow fallback path)\n    let b = vec![0u32; 4];\n}\n";
        assert!(run("crates/core/src/advance/x.rs", src).is_empty());
    }

    #[test]
    fn gather_operator_sits_in_the_cast_and_alloc_scopes() {
        // the dense gather sweeps every in-edge each PageRank iteration;
        // the `advance/` prefix covers it as long as it lives there
        let cfg = Config::default();
        let path = "crates/core/src/advance/gather.rs";
        assert!(in_scope(path, &cfg.cast_scope, &[]));
        assert!(in_scope(path, &cfg.alloc_scope, &[]));
    }

    #[test]
    fn near_far_queue_sits_in_the_alloc_scope() {
        let cfg = Config::default();
        assert!(in_scope("crates/core/src/priority_queue.rs", &cfg.alloc_scope, &[]));
    }

    #[test]
    fn operator_frame_and_compute_sit_in_the_alloc_scope() {
        // the frame wraps every operator call, thousands per
        // high-diameter query
        let cfg = Config::default();
        for path in ["crates/core/src/isolate.rs", "crates/core/src/compute.rs"] {
            assert!(in_scope(path, &cfg.alloc_scope, &[]), "{path}");
        }
    }

    #[test]
    fn alloc_pass_ignores_cold_modules_and_test_code() {
        let src = "fn f() { let v: Vec<u32> = Vec::new(); }\n";
        assert!(run("crates/algos/src/bfs.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { let v = vec![1]; }\n}\n";
        assert!(run("crates/core/src/advance/x.rs", test_src).is_empty());
    }
}
