//! The audit rules, run over [`crate::lexer::LexedFile`]s.
//!
//! Rules (see `docs/CORRECTNESS.md` for the full contract):
//!
//! 1. **unsafe-needs-safety** — every `unsafe` block, `unsafe fn`/`trait`
//!    declaration, and `unsafe impl` must be justified by a `// SAFETY:`
//!    comment immediately above (or on the same line), or — for declarations —
//!    a `# Safety` doc section. Function-*pointer types* (`unsafe fn(..)` in
//!    type position) are not unsafe sites and are skipped.
//! 2. **atomic-needs-ordering** — every atomic load/store/RMW and fence must
//!    name its ordering at the call site (`Ordering::X`, or forward an
//!    `order`-named parameter). `use Ordering::Relaxed; x.load(Relaxed)` is a
//!    finding: the ordering must be readable at the call site. A call whose
//!    ordering is fixed *inside* the callee (e.g. the repo's dw-CAS
//!    `AtomicPair::compare_exchange`) is justified with an `// ORDERING:`
//!    comment instead. Test code is exempt.
//! 3. **seqcst-needs-rationale** — `SeqCst` is banned unless the site carries
//!    an `// ORDERING:` rationale (same line or immediately above). Test code
//!    is exempt.
//! 4. **banned-construct** — `mem::transmute`, `static mut`, and `#[allow]` /
//!    `#![allow]` attributes require an `// AUDIT:` justification (same line
//!    or immediately above). `#[allow]` is exempt in test code.
//! 5. **crate-root-lint-header** — every crate root must carry
//!    `#![forbid(unsafe_code)]` or `#![deny(unsafe_op_in_unsafe_fn)]`.
//!
//! Rules 6–8 (`acquire-release-pairing`, `guard-escape`,
//! `no-panic-hot-path`) need the whole-workspace inventory and live in
//! [`crate::crossfile`]; this module also defines the shared [`Rule`] and
//! [`Finding`] vocabulary for all eight.

use crate::lexer::LexedFile;
use crate::parse::ParsedFile;

/// What kind of file is being audited (affects rule strictness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A crate root (`src/lib.rs`): the lint-header rule applies.
    CrateRoot,
    /// An integration test / dev-only file: SeqCst and `#[allow]` are exempt.
    Test,
    /// Any other source file.
    Normal,
}

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    UnsafeNeedsSafety,
    AtomicNeedsOrdering,
    SeqCstNeedsRationale,
    BannedConstruct,
    CrateRootLintHeader,
    AcquireReleasePairing,
    GuardEscape,
    NoPanicHotPath,
}

impl Rule {
    /// Stable kebab-case name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "unsafe-needs-safety",
            Rule::AtomicNeedsOrdering => "atomic-needs-ordering",
            Rule::SeqCstNeedsRationale => "seqcst-needs-rationale",
            Rule::BannedConstruct => "banned-construct",
            Rule::CrateRootLintHeader => "crate-root-lint-header",
            Rule::AcquireReleasePairing => "acquire-release-pairing",
            Rule::GuardEscape => "guard-escape",
            Rule::NoPanicHotPath => "no-panic-hot-path",
        }
    }
}

/// One diagnostic: `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl Finding {
    /// Build a finding.
    pub fn new(file: &str, line: usize, rule: Rule, message: impl Into<String>) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Atomic operations whose call sites must name an ordering.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Free functions whose call sites must name an ordering.
const ATOMIC_FNS: &[&str] = &["fence", "compiler_fence"];

/// Audit one parsed file with the per-file rules (1–5). Test scoping uses the
/// parser's item-accurate regions: a `#[cfg(test)]` module at any depth, a
/// `#[test]` fn, or a `#[cfg(test)]` impl block.
pub fn check_parsed(file: &str, parsed: &ParsedFile, kind: FileKind) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lexed = &parsed.lexed;
    let exempt = |i: usize| kind == FileKind::Test || parsed.line_in_test(i);

    check_unsafe_sites(file, lexed, &mut findings);
    check_atomics(file, lexed, &exempt, &mut findings);
    for i in 0..lexed.lines.len() {
        if !exempt(i) {
            check_seqcst(file, lexed, i, &mut findings);
        }
        check_banned(file, lexed, i, exempt(i), &mut findings);
    }
    if kind == FileKind::CrateRoot {
        check_lint_header(file, lexed, &mut findings);
    }
    findings
}

/// Convenience for tests and fixtures: lex, parse and check a source string
/// with every rule that can run on a single file (the per-file rules 1–5).
pub fn check_source(file: &str, source: &str, kind: FileKind) -> Vec<Finding> {
    let parsed = crate::parse::parse_source(source, kind == FileKind::Test);
    check_parsed(file, &parsed, kind)
}

// ---------------------------------------------------------------------------
// Rule 1: unsafe sites
// ---------------------------------------------------------------------------

fn check_unsafe_sites(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    for i in 0..lexed.lines.len() {
        let code = lexed.code(i);
        for col in word_positions(code, "unsafe") {
            if is_fn_pointer_type(lexed, i, col) {
                continue;
            }
            if !has_annotation(lexed, i, &["SAFETY:", "# Safety"]) {
                let what = site_kind(lexed, i, col);
                findings.push(Finding::new(
                    file,
                    i + 1,
                    Rule::UnsafeNeedsSafety,
                    format!("`{what}` without an immediately preceding `// SAFETY:` justification"),
                ));
            }
        }
    }
}

/// Human label for the unsafe site (block / fn / impl / trait).
fn site_kind(lexed: &LexedFile, line: usize, col: usize) -> String {
    match next_word_after(lexed, line, col + "unsafe".len()) {
        Some(w) if w == "fn" => "unsafe fn".to_string(),
        Some(w) if w == "impl" => "unsafe impl".to_string(),
        Some(w) if w == "trait" => "unsafe trait".to_string(),
        Some(w) if w == "extern" => "unsafe extern".to_string(),
        _ => "unsafe block".to_string(),
    }
}

/// `drop_fn: unsafe fn(*mut u8)` — `unsafe fn` in *type* position is not an
/// unsafe site. Detect it from the token before `unsafe`.
fn is_fn_pointer_type(lexed: &LexedFile, line: usize, col: usize) -> bool {
    if next_word_after(lexed, line, col + "unsafe".len()).as_deref() != Some("fn") {
        return false;
    }
    // Scan backwards (same line, then previous lines) for the last
    // non-whitespace character before `unsafe`.
    let before: Option<char> = {
        let this = &lexed.code(line)[..col];
        let mut found = this.chars().rev().find(|c| !c.is_whitespace());
        let mut l = line;
        while found.is_none() && l > 0 {
            l -= 1;
            found = lexed.code(l).chars().rev().find(|c| !c.is_whitespace());
        }
        found
    };
    matches!(
        before,
        Some(':') | Some('(') | Some(',') | Some('<') | Some('&') | Some('=') | Some('>')
    )
}

// ---------------------------------------------------------------------------
// Rule 2: atomic orderings
// ---------------------------------------------------------------------------

fn check_atomics(
    file: &str,
    lexed: &LexedFile,
    exempt: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..lexed.lines.len() {
        if exempt(i) {
            continue;
        }
        let code = lexed.code(i);
        for m in ATOMIC_METHODS {
            let pat = format!(".{m}(");
            let mut start = 0;
            while let Some(pos) = code[start..].find(&pat) {
                let at = start + pos;
                start = at + pat.len();
                // The char after the method name must be the `(` from the
                // pattern itself; reject `.load_lo(` style longer names.
                let name_end = at + 1 + m.len();
                if code[at + 1..name_end] != **m {
                    continue;
                }
                check_ordering_in_args(file, lexed, i, name_end, m, findings);
            }
        }
        for f in ATOMIC_FNS {
            for col in word_positions(code, f) {
                let after = col + f.len();
                if code[after..].starts_with('(') {
                    check_ordering_in_args(file, lexed, i, after, f, findings);
                }
            }
        }
    }
}

/// Collect the parenthesized argument span starting at the `(` at
/// `(line, col)` and require it to name an ordering.
fn check_ordering_in_args(
    file: &str,
    lexed: &LexedFile,
    line: usize,
    col: usize,
    what: &str,
    findings: &mut Vec<Finding>,
) {
    let span = paren_span(lexed, line, col);
    if span.to_lowercase().contains("order") {
        return;
    }
    // Zero-arg `.load()` etc. is some other type's method; and a wrapper
    // whose ordering is fixed inside the callee is justified by an
    // `// ORDERING:` comment at the call site.
    if span.trim().is_empty() || has_annotation(lexed, line, &["ORDERING:"]) {
        return;
    }
    findings.push(Finding::new(
        file,
        line + 1,
        Rule::AtomicNeedsOrdering,
        format!("atomic `{what}` call does not name an explicit `Ordering` at the site"),
    ));
}

/// The text between the `(` at (line, col) and its matching `)`, possibly
/// spanning lines. Unbalanced input returns what was collected.
fn paren_span(lexed: &LexedFile, line: usize, col: usize) -> String {
    let mut depth = 0i32;
    let mut out = String::new();
    let mut first = true;
    for i in line..lexed.lines.len().min(line + 32) {
        let code = lexed.code(i);
        let chars: Box<dyn Iterator<Item = char>> = if first {
            Box::new(code[col.min(code.len())..].chars())
        } else {
            Box::new(code.chars())
        };
        for c in chars {
            match c {
                '(' => {
                    depth += 1;
                    if depth > 1 {
                        out.push(c);
                    }
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                    out.push(c);
                }
                _ => {
                    if depth >= 1 {
                        out.push(c);
                    }
                }
            }
        }
        out.push('\n');
        first = false;
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 3: SeqCst allowlist
// ---------------------------------------------------------------------------

fn check_seqcst(file: &str, lexed: &LexedFile, i: usize, findings: &mut Vec<Finding>) {
    if word_positions(lexed.code(i), "SeqCst").is_empty() {
        return;
    }
    if has_annotation(lexed, i, &["ORDERING:"]) {
        return;
    }
    findings.push(Finding::new(
        file,
        i + 1,
        Rule::SeqCstNeedsRationale,
        "`SeqCst` without an `// ORDERING:` rationale (same line or immediately above)",
    ));
}

// ---------------------------------------------------------------------------
// Rule 4: banned constructs
// ---------------------------------------------------------------------------

fn check_banned(
    file: &str,
    lexed: &LexedFile,
    i: usize,
    test_exempt: bool,
    findings: &mut Vec<Finding>,
) {
    let code = lexed.code(i);
    let mut flag = |what: &str| {
        if !has_annotation(lexed, i, &["AUDIT:"]) {
            findings.push(Finding::new(
                file,
                i + 1,
                Rule::BannedConstruct,
                format!("`{what}` without an `// AUDIT:` justification"),
            ));
        }
    };
    if !word_positions(code, "transmute").is_empty() {
        flag("transmute");
    }
    if has_word_pair(code, "static", "mut") {
        flag("static mut");
    }
    if !test_exempt && (code.contains("#[allow(") || code.contains("#![allow(")) {
        flag("#[allow]");
    }
}

fn has_word_pair(code: &str, a: &str, b: &str) -> bool {
    for col in word_positions(code, a) {
        let rest = code[col + a.len()..].trim_start();
        if rest.starts_with(b)
            && !rest[b.len()..]
                .chars()
                .next()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false)
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 5: crate-root lint header
// ---------------------------------------------------------------------------

fn check_lint_header(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let ok = lexed.lines.iter().any(|l| {
        l.code.contains("forbid(unsafe_code)") || l.code.contains("unsafe_op_in_unsafe_fn")
    });
    if !ok {
        findings.push(Finding::new(
            file,
            1,
            Rule::CrateRootLintHeader,
            "crate root must carry `#![forbid(unsafe_code)]` or \
             `#![deny(unsafe_op_in_unsafe_fn)]`",
        ));
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Byte offsets of whole-word occurrences of `word` in `code`.
fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        start = at + word.len();
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false);
        let after_ok = !code[at + word.len()..]
            .chars()
            .next()
            .map(|c| c.is_alphanumeric() || c == '_')
            .unwrap_or(false);
        if before_ok && after_ok {
            out.push(at);
        }
    }
    out
}

/// First word after byte offset `col` on `line` (crossing line boundaries).
fn next_word_after(lexed: &LexedFile, line: usize, col: usize) -> Option<String> {
    let mut l = line;
    let mut c = col;
    loop {
        let code = lexed.code(l);
        let rest: String = code.get(c..).unwrap_or("").to_string();
        let trimmed = rest.trim_start();
        if !trimmed.is_empty() {
            let word: String = trimmed
                .chars()
                .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
                .collect();
            return Some(if word.is_empty() {
                trimmed.chars().take(1).collect()
            } else {
                word
            });
        }
        l += 1;
        c = 0;
        if l >= lexed.lines.len() {
            return None;
        }
    }
}

/// Whether line `i` carries one of `markers` in its own comment or in the
/// contiguous comment/attribute block immediately above it. A blank,
/// comment-free line breaks the association.
///
/// This is the shared annotation grammar for `SAFETY:` / `ORDERING:` /
/// `AUDIT:` / `ESCAPE:` / `HOT:` markers (see `docs/CORRECTNESS.md`).
pub(crate) fn has_annotation(lexed: &LexedFile, i: usize, markers: &[&str]) -> bool {
    let hit = |text: &str| markers.iter().any(|m| text.contains(m));
    if hit(lexed.comment(i)) {
        return true;
    }
    let mut l = i;
    while l > 0 {
        l -= 1;
        let code = lexed.code(l).trim();
        let comment = lexed.comment(l);
        if hit(comment) {
            return true;
        }
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        let is_comment_only = code.is_empty() && !comment.is_empty();
        if !(is_attr || is_comment_only) {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Finding> {
        check_source("fixture.rs", src, FileKind::Normal)
    }

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    // --- rule 1 -----------------------------------------------------------

    #[test]
    fn bare_unsafe_block_is_flagged() {
        let f = check("fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
        assert_eq!(rules(&f), vec![Rule::UnsafeNeedsSafety]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_comment_above_clears_a_block() {
        let f =
            check("fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid.\n    unsafe { *p }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn safety_comment_on_same_line_clears_a_block() {
        let f = check("fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: p is valid.\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn blank_line_breaks_the_association() {
        let f = check(
            "// SAFETY: stale justification.\n\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        assert_eq!(rules(&f), vec![Rule::UnsafeNeedsSafety]);
    }

    #[test]
    fn attributes_between_comment_and_site_are_skipped() {
        let f = check("// SAFETY: fine.\n#[inline]\nunsafe fn g() {}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn doc_safety_section_clears_an_unsafe_fn() {
        let f = check("/// Does a thing.\n///\n/// # Safety\n/// p must be valid.\npub unsafe fn g(p: *const u8) {}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_impl_needs_safety() {
        let f = check("struct S;\nunsafe impl Send for S {}\n");
        assert_eq!(rules(&f), vec![Rule::UnsafeNeedsSafety]);
        assert!(f[0].message.contains("unsafe impl"));
    }

    #[test]
    fn fn_pointer_type_is_not_a_site() {
        let f = check("struct G {\n    drop_fn: unsafe fn(*mut u8),\n}\nfn t(f: unsafe fn(u8), g: Option<unsafe fn()>) {}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let f = check("// this mentions unsafe code\nlet s = \"unsafe { }\";\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn multiline_block_comment_above_counts() {
        let f = check("/* SAFETY: the pointer\n   is valid here. */\nunsafe fn g() {}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    // --- rule 2 -----------------------------------------------------------

    #[test]
    fn atomic_call_without_ordering_is_flagged() {
        let f = check(
            "use std::sync::atomic::Ordering::Relaxed;\nfn f(x: &AtomicU64) { x.load(Relaxed); }\n",
        );
        assert_eq!(rules(&f), vec![Rule::AtomicNeedsOrdering]);
    }

    #[test]
    fn atomic_call_with_ordering_path_is_clean() {
        let f = check("fn f(x: &AtomicU64) { x.store(1, Ordering::Release); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn forwarded_order_parameter_is_clean() {
        let f = check("fn load(&self, order: Ordering) -> u64 { self.lo.load(order) }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn multiline_compare_exchange_is_scanned_whole() {
        let clean = check("x.compare_exchange(\n    a,\n    b,\n    Ordering::AcqRel,\n    Ordering::Acquire,\n);\n");
        assert!(clean.is_empty(), "{clean:?}");
        let dirty = check("x.compare_exchange(\n    a,\n    b,\n    AcqRel,\n    Acquire,\n);\n");
        assert_eq!(rules(&dirty), vec![Rule::AtomicNeedsOrdering]);
    }

    #[test]
    fn longer_method_names_do_not_match() {
        // `.load_lo(x)` must not be treated as `.load(`.
        let f = check("fn f(p: &Pair) { p.load_lo(k); p.swap_remove(1); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fence_requires_ordering() {
        assert!(check("fence(Ordering::Release);\n").is_empty());
        assert_eq!(
            rules(&check("fence(Release);\n")),
            vec![Rule::AtomicNeedsOrdering]
        );
    }

    #[test]
    fn ordering_annotation_justifies_fixed_ordering_callee() {
        // The repo's dw-CAS wrapper takes no `Ordering` parameter — the
        // ordering is fixed inside the callee and justified at the call site.
        let f = check("// ORDERING: AcqRel/Acquire fixed inside AtomicPair.\nlet r = pair.compare_exchange(cur, next);\n");
        assert!(f.is_empty(), "{f:?}");
        let bare = check("let r = pair.compare_exchange(cur, next);\n");
        assert_eq!(rules(&bare), vec![Rule::AtomicNeedsOrdering]);
    }

    #[test]
    fn atomics_in_cfg_test_module_are_exempt() {
        let f = check("#[cfg(test)]\nmod tests {\n    fn f(x: &AtomicU64) { x.load(Relaxed); }\n}\nfn g(x: &AtomicU64) { x.load(Relaxed); }\n");
        assert_eq!(rules(&f), vec![Rule::AtomicNeedsOrdering]);
        assert_eq!(f[0].line, 5, "only the non-test site is flagged");
    }

    // --- rule 3 -----------------------------------------------------------

    #[test]
    fn seqcst_without_rationale_is_flagged() {
        let f = check("fn f(x: &AtomicU64) { x.load(Ordering::SeqCst); }\n");
        assert_eq!(rules(&f), vec![Rule::SeqCstNeedsRationale]);
    }

    #[test]
    fn seqcst_with_ordering_rationale_is_clean() {
        let detached = check("// ORDERING: totally ordered against the resizer scan.\nfn f(x: &AtomicU64) -> u64 {\n    x.load(Ordering::SeqCst)\n}\n");
        assert!(!detached.is_empty(), "rationale above the fn, not the site");
        let at_site = check(
            "fn f(x: &AtomicU64) -> u64 {\n    // ORDERING: totally ordered against the resizer scan.\n    x.load(Ordering::SeqCst)\n}\n",
        );
        assert!(at_site.is_empty(), "{at_site:?}");
    }

    #[test]
    fn seqcst_in_cfg_test_module_is_exempt() {
        let f = check("#[cfg(test)]\nmod tests {\n    fn f(x: &AtomicU64) { x.load(Ordering::SeqCst); }\n}\nfn g(x: &AtomicU64) { x.load(Ordering::SeqCst); }\n");
        assert_eq!(rules(&f), vec![Rule::SeqCstNeedsRationale]);
        assert_eq!(f[0].line, 5, "only the non-test site is flagged");
    }

    #[test]
    fn seqcst_in_test_file_is_exempt() {
        let f = check_source(
            "tests/x.rs",
            "fn f(x: &AtomicU64) { x.load(Ordering::SeqCst); }\n",
            FileKind::Test,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // --- rule 4 -----------------------------------------------------------

    #[test]
    fn transmute_needs_audit_tag() {
        assert_eq!(
            rules(&check("let y = std::mem::transmute::<u32, f32>(x);\n")),
            vec![Rule::BannedConstruct]
        );
        assert!(check("// AUDIT: bit-identical reinterpretation, layout checked above.\nlet y = std::mem::transmute::<u32, f32>(x);\n").is_empty());
    }

    #[test]
    fn static_mut_needs_audit_tag() {
        assert_eq!(
            rules(&check("static mut COUNTER: u64 = 0;\n")),
            vec![Rule::BannedConstruct]
        );
        assert!(check("static muted: u64 = 0;\n").is_empty());
    }

    #[test]
    fn allow_attr_needs_audit_tag_outside_tests() {
        assert_eq!(
            rules(&check("#[allow(clippy::too_many_arguments)]\nfn f() {}\n")),
            vec![Rule::BannedConstruct]
        );
        assert!(check("// AUDIT: allow(lint) — the arg list mirrors the paper's signature.\n#[allow(clippy::too_many_arguments)]\nfn f() {}\n").is_empty());
        assert!(check("#[cfg(test)]\nmod tests {\n    #[allow(clippy::assertions_on_constants)]\n    fn f() {}\n}\n").is_empty());
    }

    // --- rule 5 -----------------------------------------------------------

    #[test]
    fn crate_root_without_header_is_flagged() {
        let f = check_source("src/lib.rs", "pub fn x() {}\n", FileKind::CrateRoot);
        assert_eq!(rules(&f), vec![Rule::CrateRootLintHeader]);
        assert!(check_source(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn x() {}\n",
            FileKind::CrateRoot
        )
        .is_empty());
        assert!(check_source(
            "src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\npub fn x() {}\n",
            FileKind::CrateRoot
        )
        .is_empty());
    }

    #[test]
    fn header_in_a_comment_does_not_count() {
        let f = check_source(
            "src/lib.rs",
            "// #![forbid(unsafe_code)]\npub fn x() {}\n",
            FileKind::CrateRoot,
        );
        assert_eq!(rules(&f), vec![Rule::CrateRootLintHeader]);
    }

    // --- composite fixture ------------------------------------------------

    #[test]
    fn deliberately_bad_fixture_produces_every_rule() {
        let bad = r#"
fn f(p: *const u8, x: &AtomicU64) -> u8 {
    x.store(1, Relaxed);
    x.fetch_add(1, Ordering::SeqCst);
    unsafe { *p }
}
#[allow(dead_code)]
static mut GLOBAL: u64 = 0;
"#;
        let f = check_source("src/lib.rs", bad, FileKind::CrateRoot);
        let got = rules(&f);
        for want in [
            Rule::UnsafeNeedsSafety,
            Rule::AtomicNeedsOrdering,
            Rule::SeqCstNeedsRationale,
            Rule::BannedConstruct,
            Rule::CrateRootLintHeader,
        ] {
            assert!(got.contains(&want), "missing {want:?} in {f:?}");
        }
    }
}
