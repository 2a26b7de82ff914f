//! E8 — §II.C: the Shneiderman 0.1 s interactive-response budget.
//!
//! Measures every §IV interactive operation on a large collection: filter
//! toggle (re-layout), align, sort, zoom (re-layout at new viewport), and
//! hover hit-testing. The printed table marks which operations meet the
//! 100 ms budget at the bench scale — the paper's own conclusion ("can be
//! challenging to use for very large data sets") shows up as the
//! operations that grow with cohort size.

use criterion::{criterion_group, criterion_main, Criterion};
use pastas_bench::{base_scale, cohort, header, par_ratio_row};
use pastas_core::Workbench;
use pastas_query::{EntryPredicate, QueryBuilder, SortKey};
use std::time::Instant;

fn time_ms<F: FnMut()>(mut f: F) -> f64 {
    // Median of 5 runs.
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[2]
}

fn bench(c: &mut Criterion) {
    header(
        "E8: interaction latency",
        "response times for mouse and typing actions should be less than 0.1 second",
    );
    let n = (base_scale() * 4).max(20_000);
    let collection = cohort(n);
    eprintln!("collection: {} patients, {} entries", n, collection.stats().entries);
    let mut wb = Workbench::from_collection(collection);
    let vp = wb.default_viewport(1280.0, 720.0);

    // The per-operation budget table.
    let query = QueryBuilder::new().has_code("T90|T89").expect("regex").build();
    // First call below populates the workbench selection cache, so the
    // uncached cost is measured against the index directly.
    let uncached = time_ms(|| {
        std::hint::black_box(wb.index().select(wb.collection(), &query));
    });
    // Negated and compound-with-negation shapes: before the planner these
    // were full scans; they must now sit inside the budget like the
    // positive shape does.
    let negated = QueryBuilder::new().lacks_code("T90|T89").expect("regex").build();
    let compound_negated = QueryBuilder::new()
        .has_code("K8[5-7]")
        .expect("regex")
        .lacks_code("T90|T89")
        .expect("regex")
        .build();
    let ops: Vec<(&str, f64)> = vec![
        ("select cohort (uncached)", uncached),
        ("re-select (cached)", time_ms(|| {
            std::hint::black_box(wb.select_positions(&query));
        })),
        ("select negated (uncached)", time_ms(|| {
            std::hint::black_box(wb.index().select(wb.collection(), &negated));
        })),
        ("select has∧lacks (uncached)", time_ms(|| {
            std::hint::black_box(wb.index().select(wb.collection(), &compound_negated));
        })),
        ("sort by utilization", time_ms(|| wb.sort(&SortKey::EntryCount))),
        ("align on T90", time_ms(|| {
            wb.align_on_code("T90").expect("regex");
        })),
        ("re-layout after filter", {
            wb.set_filter(Some(EntryPredicate::IsDiagnosis));
            let t = time_ms(|| {
                std::hint::black_box(wb.layout(&vp));
            });
            wb.set_filter(None);
            t
        }),
        ("zoom re-layout", time_ms(|| {
            let mut v = vp;
            v.zoom_time(2.0, v.time_at(640.0));
            std::hint::black_box(wb.layout(&v));
        })),
    ];
    // Hover: hit-test against a prebuilt map (the UI keeps it cached).
    let (_, hits) = wb.layout(&vp);
    let hover = time_ms(|| {
        for x in [100.0, 400.0, 800.0, 1200.0] {
            std::hint::black_box(hits.hit_test(x, 360.0));
        }
    });

    eprintln!("{:<28} {:>10} {:>8}", "operation", "median", "budget");
    for (name, ms) in ops.iter().chain([("hover hit-test ×4", hover)].iter()) {
        eprintln!(
            "{:<28} {:>7.1} ms {:>8}",
            name,
            ms,
            if *ms < 100.0 { "MET" } else { "OVER" }
        );
    }

    // Serial-vs-parallel ratio for the selection the parallel layer
    // accelerates (cache bypassed so both sides do real work; PASTAS_THREADS
    // is honoured on the parallel side). Sorts are a serial radix pass over
    // the collection's row columns.
    par_ratio_row("e8 indexed selection", || {
        std::hint::black_box(wb.index().select(wb.collection(), &query));
    });

    // Criterion timings for the two hottest paths.
    c.bench_function("e8_indexed_selection", |b| {
        b.iter(|| wb.select_positions(&query))
    });
    c.bench_function("e8_visible_layout", |b| b.iter(|| wb.layout(&vp)));
    c.bench_function("e8_hover_hit_test", |b| {
        b.iter(|| hits.hit_test(640.0, 360.0))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
