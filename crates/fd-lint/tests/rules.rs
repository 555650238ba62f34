//! Per-rule engine tests: every rule gets a positive case (fires), a
//! negative case (stays quiet), and the suppression contract is checked
//! both ways (a reasoned allow suppresses; a reasonless allow is itself
//! an error).

use fd_lint::{lint_source, Finding, Options, Severity};

/// Lint `src` as if it were the given workspace-relative file.
fn lint(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_source(rel_path, src, &Options::default())
}

/// The unsuppressed findings for one rule ID.
fn hits<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .collect()
}

const SIM_FILE: &str = "crates/fd-sim/src/demo.rs";

// ---------------------------------------------------------------- ND001

#[test]
fn nd001_fires_on_hashmap_iteration() {
    let src = "use std::collections::HashMap;\n\
               struct S { m: HashMap<u32, u32> }\n\
               impl S {\n\
               fn f(&self) { for (k, v) in self.m.iter() { let _ = (k, v); } }\n\
               }\n";
    let f = lint(SIM_FILE, src);
    let h = hits(&f, "ND001");
    assert_eq!(h.len(), 1, "{f:?}");
    assert_eq!((h[0].line, h[0].severity), (4, Severity::Deny));
}

#[test]
fn nd001_sees_through_use_renames() {
    let src = "use std::collections::HashMap as FastMap;\n\
               fn f(m: FastMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n";
    assert_eq!(hits(&lint(SIM_FILE, src), "ND001").len(), 1);
}

#[test]
fn nd001_quiet_on_btreemap_and_outside_sim_crates() {
    let ordered = "use std::collections::BTreeMap;\n\
                   fn f(m: BTreeMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n";
    assert!(hits(&lint(SIM_FILE, ordered), "ND001").is_empty());
    let hash = "use std::collections::HashMap;\n\
                fn f(m: HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n";
    // fd-obs is not a determinism-scoped crate.
    assert!(hits(&lint("crates/fd-obs/src/demo.rs", hash), "ND001").is_empty());
}

#[test]
fn nd001_quiet_in_test_code() {
    let src = "use std::collections::HashMap;\n\
               #[cfg(test)]\n\
               mod tests {\n\
               use super::*;\n\
               fn f(m: HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n\
               }\n";
    assert!(hits(&lint(SIM_FILE, src), "ND001").is_empty());
}

// ---------------------------------------------------------------- ND002

#[test]
fn nd002_fires_on_wall_clock() {
    let src = "use std::time::Instant;\nfn f() -> Instant { Instant::now() }\n";
    let f = lint(SIM_FILE, src);
    let h = hits(&f, "ND002");
    assert_eq!(h.len(), 1, "{f:?}");
    assert_eq!(h[0].line, 2);
}

#[test]
fn nd002_quiet_in_exempt_crates() {
    let src = "use std::time::Instant;\nfn f() -> Instant { Instant::now() }\n";
    for file in ["crates/fd-obs/src/demo.rs", "crates/fd-bench/src/demo.rs"] {
        assert!(hits(&lint(file, src), "ND002").is_empty(), "{file}");
    }
}

// ---------------------------------------------------------------- ND003

#[test]
fn nd003_fires_on_thread_rng_at_site() {
    let src = "use rand::thread_rng;\n\
               use rand::Rng;\n\
               fn f() -> u64 { thread_rng().gen() }\n";
    let f = lint(SIM_FILE, src);
    let h = hits(&f, "ND003");
    assert_eq!(h.len(), 1, "{f:?}");
    assert_eq!((h[0].line, h[0].col), (3, 17));
}

#[test]
fn nd003_fires_on_rand_random_path() {
    let src = "fn f() -> u64 { rand::random() }\n";
    assert_eq!(hits(&lint(SIM_FILE, src), "ND003").len(), 1);
}

#[test]
fn nd003_quiet_on_seeded_rng() {
    let src = "use rand::{rngs::SmallRng, Rng, SeedableRng};\n\
               fn f(seed: u64) -> u64 { SmallRng::seed_from_u64(seed).gen() }\n";
    assert!(hits(&lint(SIM_FILE, src), "ND003").is_empty());
}

// ---------------------------------------------------------------- ND004

#[test]
fn nd004_fires_on_float_keys() {
    let src = "use std::collections::BTreeMap;\n\
               fn f(m: BTreeMap<f64, u32>) -> usize { m.len() }\n";
    let f = lint(SIM_FILE, src);
    assert_eq!(hits(&f, "ND004").len(), 1, "{f:?}");
}

#[test]
fn nd004_quiet_on_float_values() {
    let src = "use std::collections::BTreeMap;\n\
               fn f(m: BTreeMap<u32, f64>) -> usize { m.len() }\n";
    assert!(hits(&lint(SIM_FILE, src), "ND004").is_empty());
}

// ---------------------------------------------------------------- ND005

#[test]
fn nd005_fires_on_rc_keys_and_ptr_identity() {
    let keyed = "use std::collections::BTreeMap;\nuse std::rc::Rc;\n\
                 fn f(m: BTreeMap<Rc<str>, u32>) -> usize { m.len() }\n";
    assert_eq!(hits(&lint(SIM_FILE, keyed), "ND005").len(), 1);
    let as_ptr = "use std::rc::Rc;\n\
                  fn f(a: &Rc<u32>) -> *const u32 { Rc::as_ptr(a) }\n";
    assert_eq!(hits(&lint(SIM_FILE, as_ptr), "ND005").len(), 1);
}

#[test]
fn nd005_quiet_on_plain_rc_use() {
    let src = "use std::rc::Rc;\nfn f(a: Rc<u32>) -> u32 { *a }\n";
    assert!(hits(&lint(SIM_FILE, src), "ND005").is_empty());
}

// ---------------------------------------------------------------- UH001

#[test]
fn uh001_fires_on_unsafe_outside_allowlist() {
    let src = "fn f(p: *const u32) -> u32 { unsafe { *p } }\n";
    let f = lint(SIM_FILE, src);
    let h = hits(&f, "UH001");
    assert_eq!(h.len(), 1, "{f:?}");
    assert_eq!(h[0].severity, Severity::Deny);
}

#[test]
fn uh001_quiet_in_the_allocator_module() {
    let src = "fn f(p: *const u32) -> u32 { unsafe { *p } }\n";
    assert!(hits(&lint("crates/fd-obs/src/alloc.rs", src), "UH001").is_empty());
}

// ---------------------------------------------------------------- UH002

#[test]
fn uh002_fires_only_in_hot_path_files() {
    let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    let hot = lint("crates/fd-sim/src/world.rs", src);
    assert_eq!(hits(&hot, "UH002").len(), 1, "{hot:?}");
    assert_eq!(hits(&hot, "UH002")[0].severity, Severity::Warn);
    assert!(hits(&lint(SIM_FILE, src), "UH002").is_empty());
}

// ---------------------------------------------------------------- UH003

#[test]
fn uh003_fires_on_undocumented_pub_item() {
    let src = "pub fn f() {}\n";
    let f = lint("crates/fd-core/src/demo.rs", src);
    assert_eq!(hits(&f, "UH003").len(), 1, "{f:?}");
}

#[test]
fn uh003_quiet_when_documented_or_outside_docs_crates() {
    let documented = "/// Does f things.\npub fn f() {}\n";
    assert!(hits(&lint("crates/fd-core/src/demo.rs", documented), "UH003").is_empty());
    let bare = "pub fn f() {}\n";
    assert!(hits(&lint("crates/fd-campaign/src/demo.rs", bare), "UH003").is_empty());
}

#[test]
fn uh003_escalates_to_deny_on_the_adversary_surface_files() {
    let bare = "pub fn f() {}\n";
    for file in ["crates/fd-sim/src/link.rs", "crates/fd-sim/src/topology.rs"] {
        let f = lint(file, bare);
        let h = hits(&f, "UH003");
        assert_eq!(h.len(), 1, "{file}");
        assert_eq!(h[0].severity, Severity::Deny, "{file}");
        assert!(h[0].message.contains("adversary surface"), "{file}");
    }
    // Elsewhere in fd-sim the rule stays a warning.
    assert_eq!(
        hits(&lint(SIM_FILE, bare), "UH003")[0].severity,
        Severity::Warn
    );
}

#[test]
fn nd001_covers_the_chaos_crate() {
    let src = "use std::collections::HashMap;\n\
               fn f(m: HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n";
    assert_eq!(
        hits(&lint("crates/fd-chaos/src/demo.rs", src), "ND001").len(),
        1
    );
}

// ---------------------------------------------------------- suppressions

#[test]
fn reasoned_allow_suppresses_and_keeps_the_reason() {
    let src = "use std::time::Instant;\n\
               // fd-lint: allow(ND002, reason = \"timing metric, never fed back\")\n\
               fn f() -> Instant { Instant::now() }\n";
    let f = lint(SIM_FILE, src);
    assert!(hits(&f, "ND002").is_empty(), "{f:?}");
    let sup: Vec<_> = f.iter().filter(|x| x.rule == "ND002").collect();
    assert_eq!(sup.len(), 1);
    assert!(sup[0].suppressed);
    assert_eq!(
        sup[0].reason.as_deref(),
        Some("timing metric, never fed back")
    );
    assert!(f.iter().all(|x| x.rule != "SUP001"));
}

#[test]
fn reason_with_commas_and_parens_parses() {
    let src = "use std::time::Instant;\n\
               fn f() -> Instant { Instant::now() } // fd-lint: allow(ND002, reason = \"a, b (c), d\")\n";
    let f = lint(SIM_FILE, src);
    assert!(hits(&f, "ND002").is_empty(), "{f:?}");
    assert_eq!(
        f.iter()
            .find(|x| x.rule == "ND002")
            .unwrap()
            .reason
            .as_deref(),
        Some("a, b (c), d")
    );
}

#[test]
fn reasonless_allow_is_itself_an_error() {
    let src = "use std::time::Instant;\n\
               // fd-lint: allow(ND002)\n\
               fn f() -> Instant { Instant::now() }\n";
    let f = lint(SIM_FILE, src);
    let sup001 = hits(&f, "SUP001");
    assert_eq!(sup001.len(), 1, "{f:?}");
    assert_eq!(sup001[0].severity, Severity::Deny);
    // And the underlying finding is NOT suppressed.
    assert_eq!(hits(&f, "ND002").len(), 1);
}

#[test]
fn allow_naming_unknown_rule_is_an_error() {
    let src = "// fd-lint: allow(ND999, reason = \"no such rule\")\nfn f() {}\n";
    let f = lint(SIM_FILE, src);
    assert_eq!(hits(&f, "SUP001").len(), 1, "{f:?}");
}

#[test]
fn allow_for_a_different_rule_does_not_suppress() {
    let src = "use std::time::Instant;\n\
               // fd-lint: allow(ND001, reason = \"wrong rule on purpose\")\n\
               fn f() -> Instant { Instant::now() }\n";
    let f = lint(SIM_FILE, src);
    assert_eq!(hits(&f, "ND002").len(), 1, "{f:?}");
}

// --------------------------------------------------------- rule filters

#[test]
fn rule_filter_restricts_to_named_rules() {
    let src = "use std::collections::HashMap;\n\
               use std::time::Instant;\n\
               fn g() -> Instant { Instant::now() }\n\
               fn f(m: HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n";
    let only_nd002 = lint_source(
        SIM_FILE,
        src,
        &Options {
            rules: vec!["ND002".to_string()],
        },
    );
    assert_eq!(hits(&only_nd002, "ND002").len(), 1);
    assert!(hits(&only_nd002, "ND001").is_empty());
}

#[test]
fn unknown_rule_filter_is_rejected_listing_valid_ids() {
    let err = fd_lint::validate_rule_ids(&["ND042".to_string()]).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("ND042") && msg.contains("ND001") && msg.contains("UH003"),
        "{msg}"
    );
}
