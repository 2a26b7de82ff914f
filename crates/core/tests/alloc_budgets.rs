//! Allocation budgets of the hot paths, counted at run time.
//!
//! The interactive loop rests on paths that allocate per shard, per drawn
//! element or per call, never per candidate, row or visited entry. Each
//! test runs one path at `pastas_par::with_threads(1)` under a counting
//! allocator, prints its numbers (`cargo test --release -p pastas-core
//! --test alloc_budgets -- --nocapture`) and holds them to a budget per
//! unit of work, set from the counts at seed 2016 (debug and release
//! count the same). "Does not grow with the work" compares 2,000 and
//! 20,000 patients, both one index shard.
//!
//! The counter is a std-only global allocator around `System` counting
//! the allocations and reallocations, and the bytes they ask for, of the
//! thread that armed it: the harness's other threads do not disturb it.

use pastas_codes::Code;
use pastas_core::{CohortRegistry, RegistryConfig, Workbench};
use pastas_model::CodeDictionary;
use pastas_query::{parse_query, BoundPredicate, EntryPredicate, QueryPlan};
use pastas_regex::Regex;
use pastas_synth::{generate_collection, SynthConfig};
use pastas_viz::{svg, TimelineOptions, TimelineView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// Allocations and reallocations, and the bytes they asked for.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    allocs: u64,
    bytes: u64,
}

thread_local! {
    /// `Some(counts)` while this thread is being counted.
    static COUNT: Cell<Option<Counts>> = const { Cell::new(None) };
}

fn count_one(bytes: usize) {
    // `try_with`: the slot may be gone while the thread shuts down.
    let _ = COUNT.try_with(|c| {
        c.set(c.get().map(|n| Counts { allocs: n.allocs + 1, bytes: n.bytes + bytes as u64 }))
    });
}

/// The system allocator, counting into [`COUNT`].
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocates, run on this thread alone.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    pastas_par::with_threads(1, || {
        COUNT.with(|c| c.set(Some(Counts::default())));
        let out = f();
        (out, COUNT.with(|c| c.replace(None)).unwrap_or_default())
    })
}

const SMALL: usize = 2_000;
const LARGE: usize = 20_000;
/// One index shard (65,536 rows) and `SMALL` more: two shards.
const SHARDED: usize = 65_536 + SMALL;

/// The workbench over `SMALL`, `LARGE` or `SHARDED` patients at seed
/// 2016, built once for the binary.
fn workbench(patients: usize) -> &'static Workbench {
    static BENCHES: [OnceLock<Workbench>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    BENCHES[[SMALL, LARGE, SHARDED].iter().position(|&p| p == patients).unwrap()].get_or_init(
        || {
            Workbench::from_collection(generate_collection(
                SynthConfig::with_patients(patients),
                2016,
            ))
        },
    )
}

/// The date `age(..)` clauses and profiles are taken at.
fn reference() -> pastas_time::Date {
    SynthConfig::with_patients(SMALL).window_end()
}

/// Check that the work (hits, candidates, rows) grew from `SMALL` to
/// `LARGE` while the allocations did not: at most 0.05 more an added
/// unit, twenty times below one a unit. A `Vec` that doubles adds a few.
fn assert_flat(what: &str, work: [u64; 2], allocs: [u64; 2]) {
    let added = allocs[1].saturating_sub(allocs[0]) as f64;
    let per_unit = added / work[1].saturating_sub(work[0]).max(1) as f64;
    println!("{what}: {work:?} units, {allocs:?} allocations, {per_unit:.4} an added unit");
    assert!(work[1] >= 5 * work[0].max(1), "{what}: the larger collection must do more work");
    assert!(per_unit <= 0.05, "{what}: {per_unit:.4} allocations an added unit");
}

#[test]
fn generation_stays_within_its_allocation_budget() {
    let (collection, n) = counted(|| generate_collection(SynthConfig::with_patients(SMALL), 2016));
    let per_patient = n.allocs as f64 / SMALL as f64;
    let per_entry = n.allocs as f64 / collection.stats().entries as f64;
    println!("synthesis: {per_patient:.2} allocations a patient, {per_entry:.3} an entry");
    assert!(per_patient <= 6.0, "{per_patient:.2} allocations a patient");
}

/// Execute the planned `text` on `patients`, plan building (which
/// resolves the fetches' code leaves) excluded: the hits, the pattern
/// candidates and what the execution, binding its residual query
/// included, allocated.
fn execute(patients: usize, text: &str) -> (u64, u64, Counts) {
    let wb = workbench(patients);
    let query = parse_query(text, reference()).expect("the shape parses");
    let plan = QueryPlan::build(wb.index(), wb.collection(), &query);
    let ((hits, stats), n) = counted(|| plan.execute_stats(wb.collection(), wb.index()));
    (hits.len() as u64, stats.pattern_candidates, n)
}

/// Planned selects: the allocations do not grow with the hits, and past
/// the answer (4 bytes a hit, reserved once) set algebra and verification
/// allocate at most 6 bytes a row at `LARGE`; a posting decoded to a
/// `Vec` in an operator costs 4 a posting, and so does each copy of the
/// candidates `count(..)` verifies.
#[test]
fn planned_selects_allocate_per_shard_not_per_hit() {
    for text in [
        "has(T90)",
        "lacks(T90)",
        "has(K.*) and lacks(T90)",
        "has(T90|T89) and lacks(K74) and age(40..95)",
        "has(T90) or has(R95)",
        "not (has(T90) and has(K74))",
        "sex(F) and age(50..80)",
        "has(K.*) or sex(F)",
        "has(K.*) and lacks(T90) and age(40..90)",
        "not age(18..64) and not sex(M)",
        "has(T90) and not (age(0..39) or sex(M))",
        "count(K.*) >= 2",
    ] {
        let ((small_hits, _, small), (large_hits, _, large)) =
            (execute(SMALL, text), execute(LARGE, text));
        assert_flat(text, [small_hits, large_hits], [small.allocs, large.allocs]);
        let extra = large.bytes.saturating_sub(4 * large_hits) as f64 / LARGE as f64;
        println!("{text}: {extra:.2} bytes a row past the answer");
        assert!(extra <= 6.0, "{text}: {extra:.2} bytes a row");
    }
}

/// Pattern scans: nothing a candidate, and a fixed cost a query at one
/// shard — binding the steps to the code dictionary once (a `K.*` step
/// runs the VM on the `K` codes alone), then set algebra. A second shard
/// adds its set algebra, not a second bind.
#[test]
fn pattern_scans_allocate_per_shard_not_per_candidate() {
    for (text, budget) in [
        ("seq(T90 then K.*)", 90),
        ("seq(K.* then[0d..365d] T90)", 90),
        ("seq(T90 then[0d..3650d] medication then any)", 25),
        ("seq(T90 then[-30d..90d] K.*)", 90),
    ] {
        let [(_, small_candidates, small), (_, large_candidates, large), (_, _, sharded)] =
            [SMALL, LARGE, SHARDED].map(|patients| execute(patients, text));
        assert_flat(text, [small_candidates, large_candidates], [small.allocs, large.allocs]);
        let most = small.allocs.max(large.allocs);
        let second = sharded.allocs.saturating_sub(most);
        println!("{text}: {most} allocations a query at one shard, {second} more at two");
        assert!(most <= budget, "{text}: {most} allocations a query, budget {budget}");
        assert!(second <= 20, "{text}: a second shard adds {second} allocations");
    }
}

/// A dictionary shaped like ICPC-2, ICD-10 and ATC together, 6,173
/// codes: every ICPC symptom and diagnosis number of 17 chapters, every
/// ICD-10 category `A00`–`Z99` and the diabetes subcodes, and 2,520
/// level-5 ATC codes (18 of them under `C07`, beside ICD-10 `C07`).
fn vocabulary() -> Arc<CodeDictionary> {
    let mut dict = CodeDictionary::default();
    let icpc = |ch| (1..=29).chain(70..=99).map(move |n| format!("{ch}{n:02}"));
    for value in "ABDFHKLNPRSTUWXYZ".chars().flat_map(icpc) {
        dict.intern(&Code::icpc(&value));
    }
    let categories = ('A'..='Z').flat_map(|l| (0..100).map(move |n| format!("{l}{n:02}")));
    for value in categories.chain((100..150).map(|i| format!("E{}.{}", i / 10, i % 10))) {
        dict.intern(&Code::icd10(&value));
    }
    for group in "ABCDGHJLMNPRSV".chars() {
        for i in 0u8..180 {
            let (n, m) = (1 + i / 18, 1 + i % 2);
            let (a, b) = (char::from(b'A' + i / 6 % 3), char::from(b'A' + i / 2 % 3));
            dict.intern(&Code::atc(&format!("{group}{n:02}{a}{b}{m:02}")));
        }
    }
    Arc::new(dict)
}

/// Binding a code leaf costs what its matching codes cost, not what the
/// vocabulary holds: the exact literal `T90` (one binary search, no VM
/// call) allocates no more on 6,173 codes than on the synthetic
/// population's few dozen, and `C07.*` (the VM on the `C07` run alone)
/// at most 8 plus 10 a matching code.
#[test]
fn a_bind_scales_with_matches_not_vocabulary() {
    let (small, large) = (Arc::clone(workbench(SMALL).collection().dictionary()), vocabulary());
    assert!(large.len() >= 5_000 && small.len() < 100, "{} and {} codes", small.len(), large.len());
    let bind = |pattern: &str, dict: &Arc<CodeDictionary>| {
        let pred = EntryPredicate::code_regex(pattern).unwrap();
        counted(|| drop(BoundPredicate::new(&pred, dict))).1.allocs
    };
    let t90 = [bind("T90", &small), bind("T90", &large)];
    let c07 = bind("C07.*", &large);
    let matching = large.sorted_from("C07").take_while(|(_, c)| c.value.starts_with("C07")).count();
    let codes = [small.len(), large.len()];
    println!("bind T90: {t90:?} allocations on {codes:?} codes; C07.*: {c07} ({matching} match)");
    assert!(t90[1] <= t90[0], "T90: {t90:?} allocations on {codes:?} codes");
    assert!(c07 <= 8 + 10 * matching as u64, "C07.*: {c07} allocations for {matching} codes");
}

/// The timeline: allocations a drawn element (its tooltip, a row label),
/// none a visited entry; the `K.*` filter makes visited entries
/// outnumber drawn ones. `layout` also clones each tooltip into its hit
/// record. The SVG writer renders a scene into one buffer sized once.
#[test]
fn timeline_allocates_per_drawn_element_and_svg_once_a_render() {
    let wb = workbench(SMALL);
    let vp = wb.default_viewport(1200.0, 800.0);
    for filter in ["K.*", ""] {
        let filter = (!filter.is_empty()).then(|| EntryPredicate::code_regex(filter).unwrap());
        let options = TimelineOptions { filter, ..TimelineOptions::default() };
        let view = TimelineView::new(wb.collection(), options).with_order(wb.order());
        let (scene, n) = counted(|| view.scene(&vp));
        let drawn = scene.len() as f64;
        let (scene_rate, layout_rate) =
            (n.allocs as f64 / drawn, counted(|| view.layout(&vp)).1.allocs as f64 / drawn);
        let rendered = counted(|| svg::render(&scene)).1.allocs;
        let filtered = view.options.filter.is_some();
        println!(
            "timeline (filtered: {filtered}): {drawn} elements, scene {scene_rate:.2} and \
             layout {layout_rate:.2} allocations an element, svg {rendered} a render"
        );
        // Filtered, the `K.*` filter is bound once a scene.
        let scene_budget = if filtered { 1.2 } else { 2.25 };
        assert!(scene_rate <= scene_budget, "scene: {scene_rate:.2} allocations an element");
        assert!(layout_rate <= 3.25, "layout: {layout_rate:.2} allocations an element");
        assert!(rendered <= 1, "svg: {rendered} allocations a render");
    }
}

/// Cohort reads through the registry, the handle's decode included: the
/// profile and the monthly series do not grow with the cohort's rows.
#[test]
fn cohort_reads_do_not_grow_with_rows() {
    let (mut rows, mut profile, mut monthly) = ([0; 2], [0; 2], [0; 2]);
    for (i, patients) in [SMALL, LARGE].into_iter().enumerate() {
        let wb = workbench(patients);
        let positions = wb.select_positions(&parse_query("has(T90)", reference()).unwrap());
        let registry = CohortRegistry::new(RegistryConfig::default());
        let handle = registry.materialize(0, "has(T90)", "has(T90)", &positions);
        rows[i] = handle.count;
        profile[i] = counted(|| registry.profile(&handle, wb, reference()).cohort_size).1.allocs;
        monthly[i] = counted(|| registry.monthly(&handle, wb).len()).1.allocs;
    }
    assert_flat("cohort profile", rows, profile);
    assert_flat("cohort monthly", rows, monthly);
}

/// The regex VM: at most 12 allocations a call (its thread lists and
/// capture buffers, pooled for the call), none more on a longer haystack.
#[test]
fn regex_calls_allocate_per_call_not_per_step() {
    let k = Regex::new("K.*").unwrap();
    let codes = Regex::new("T90|T89|E1(0|1|4).*").unwrap();
    let check = |name: &str, unit: &str, call: &dyn Fn(&str) -> usize| {
        let long = unit.repeat(64);
        let (short, long) = (counted(|| call(unit)).1.allocs, counted(|| call(&long)).1.allocs);
        println!("{name} on {unit:?}: {short} allocations, on 64 of it {long}");
        assert!(short <= 12, "{name}: {short} allocations a call");
        assert!(long <= short, "{name}: a longer haystack allocates more");
    };
    check("is_full_match", "K74", &|h| usize::from(k.is_full_match(h)));
    check("is_match", "A01", &|h| usize::from(codes.is_match(h)));
    check("is_match", "A01", &|h| usize::from(k.is_match(h)));
    check("find_iter", "A01", &|h| codes.find_iter(h).count());
}
