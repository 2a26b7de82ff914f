//! The two workloads and the seeded request generator.
//!
//! A workload is a scale: ROADMAP aim 1 wants every user-visible
//! operation timed at the socket at paper scale (168k, one arena) and at
//! 1M (16 shards). Every run reports every end-to-end metric (the
//! driver's contract), so every run drives the three phases that carry
//! them: cohort, view and live. The battery and the warm phase feed
//! per-layer numbers only and run in traced runs. The two workloads
//! differ in the data they serve and in how the run is shared among the
//! phases, since a unit of work costs six to ten times more at 1M.
//!
//! The data is always `pastas_synth` seed 2016. `--seed` drives only this
//! generator: which codes, age bounds, gap bounds, warm URLs and delta
//! chunks a run uses. The same seed yields the same request list.

use pastas_ingest::DeltaFormat;
use pastas_query::{canonical_fingerprint, parse_query};
use pastas_synth::emit::{emit, MessConfig};
use pastas_synth::{generate_population, SynthConfig};
use pastas_time::Date;
use std::collections::HashSet;

/// Seed of the served population, fixed so every run serves the same data.
pub const DATA_SEED: u64 = 2016;

/// The five phases. View commands and ingest publish new snapshot
/// versions, so the warm phase runs before and after the view phase, not
/// during it, and the live phase, which changes the collection, comes
/// last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Cold cohort-identification sessions.
    Cohort,
    /// The ACR-style `seq(...)` battery, cold.
    Temporal,
    /// View command followed by a fresh SVG.
    View,
    /// Response-cache hits from two clients.
    Warm,
    /// Streamed ingest beside cold selects.
    Live,
}

/// Which query kinds the cohort phase cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohortMix {
    /// [`SESSION_CYCLE`]: six kinds, so every set-algebra operator runs.
    Mixed,
    /// Compound-negated queries only (ISSUE 11's phase A at 1M): the
    /// dozen sessions a run affords there are too few for a statistic
    /// over six kinds of different cost to hold still.
    CompoundOnly,
}

/// One workload: a scale, and how the run is shared among the phases.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Patients served.
    pub patients: usize,
    /// `SynthConfig::shard_patients` (0 = one arena).
    pub shard_patients: usize,
    /// Threads of the program's data-parallel sections (`PASTAS_THREADS`);
    /// `None` leaves the program's default, one per core.
    pub threads: Option<usize>,
    /// How many times a run sets the server up; `setup_s` is the median.
    pub setups: usize,
    /// Weight of each phase: cohort, temporal, view, warm, live. A run
    /// shares `--seconds` among the phases it drives in these proportions:
    /// an untraced run drives cohort, view and live, whose weights sum to
    /// 1; a traced run drives all five.
    pub shares: [f64; 5],
    /// Query kinds of the cohort phase.
    pub cohort_mix: CohortMix,
}

impl Spec {
    /// Share of a run given to `phase`: all of the run is shared among
    /// the `driven` phases, in proportion to their weights, and a phase
    /// that is not driven gets none.
    pub fn share(&self, phase: Phase, driven: &[Phase]) -> f64 {
        if !driven.contains(&phase) {
            return 0.0;
        }
        let total: f64 = driven.iter().map(|&p| self.shares[p as usize]).sum();
        self.shares[phase as usize] / total
    }
}

/// The phases an untraced run drives: the ones its end-to-end metrics
/// come from.
pub const UNTRACED_PHASES: [Phase; 3] = [Phase::Cohort, Phase::View, Phase::Live];

/// The phases a traced run drives: all five.
pub const TRACED_PHASES: [Phase; 5] = [
    Phase::Cohort,
    Phase::Temporal,
    Phase::View,
    Phase::Warm,
    Phase::Live,
];

/// The two workloads.
///
/// `paper_168k` runs the program's data-parallel sections on one thread.
/// At 168k such a section lasts 4 to 24 ms, and on the two shared virtual
/// cores of the reference box its time is decided by where the kernel
/// puts its two threads (both on one core for seconds at a time, or one
/// on a core the host has to wake first): the cohort reads drifted 19%
/// between two sets of ten runs half an hour apart, and stay within 1%
/// on one thread. Only the cohort reads are slower for it (47 ms against
/// 24 ms); selects, view commands, ingest and set-up cost the same.
/// `live_1m`, where a section lasts six times as long and the shards fan
/// out, keeps the default, one thread a core.
///
/// The weights follow from what a unit costs (a cohort session 0.19 s at
/// 168k and 0.75 s at 1M, a battery round of four requests 0.7 s and
/// 5 s, a command cycle of eight interactions 0.9 s and 6.5 s, an ingest
/// batch 0.11 s and 0.65 s) and from how many samples a median needs to
/// hold still. Of an untraced 40 s run at 168k the cohort phase gets 18 s
/// (a hundred sessions, thirty-nine of them of the paper's shape), view
/// and live 11 s each (eight command cycles, a hundred batches). At 1M
/// the view phase gets 18 s, which is three command cycles and
/// twenty-four interactions, the cohort phase 12 s (nineteen sessions,
/// all of the paper's shape) and the live stream 10 s (sixteen batches).
/// In a traced run the battery and the warm phase join with the weights
/// below and every phase runs twice, traced and untraced, on half its
/// budget: a handful of rounds and some ten thousand requests at 168k,
/// one round at 1M (a phase always finishes the round or cycle it is in,
/// which is also why a run lasts a few seconds longer than `--seconds`).
/// `live_1m` sets up once, at 12 s a time.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "paper_168k",
        patients: 168_000,
        shard_patients: 0,
        threads: Some(1),
        setups: 3,
        shares: [0.45, 0.15, 0.275, 0.06, 0.275],
        cohort_mix: CohortMix::Mixed,
    },
    Spec {
        name: "live_1m",
        patients: 1_000_000,
        shard_patients: 65_536,
        threads: None,
        setups: 1,
        shares: [0.30, 0.12, 0.45, 0.05, 0.25],
        cohort_mix: CohortMix::CompoundOnly,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The six set-algebra query kinds of ISSUE 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `has(X)`.
    Positive,
    /// `lacks(X)`.
    Negated,
    /// `has(K.*) and lacks(B) and age(lo..hi)`, the paper's shape.
    CompoundNegated,
    /// `count(X) >= n and age(lo..hi)`.
    Counted,
    /// `has(X) or has(Y)`.
    Disjunctive,
    /// `sex(S) and age(lo..hi) and has(A.*)`.
    Demographic,
}

impl Kind {
    /// Every kind once, for the differential pre-check.
    pub const ALL: [Kind; 6] = [
        Kind::Positive,
        Kind::Negated,
        Kind::CompoundNegated,
        Kind::Counted,
        Kind::Disjunctive,
        Kind::Demographic,
    ];
}

/// The kinds a mixed cohort phase cycles through. Compound-negated, the
/// paper's shape, takes three slots of eight: the cohort-read metrics
/// (`cohort_stats_p50_ms` and its two siblings) are medians over the
/// sessions of that kind alone, whose cohorts are all of one size, so
/// the more of them the better. A median over all six kinds would sit on
/// the boundary between two of them (the disjunctive cohorts, 10 to
/// 21 ms a read at 168k, below it and the compound ones, 23 ms, above)
/// and move with the seed's draws. The median select, over all kinds,
/// falls inside the compound and negated kinds, which cost the same, and
/// the p95 select inside the counted kind.
pub const SESSION_CYCLE: [Kind; 8] = [
    Kind::Positive,
    Kind::CompoundNegated,
    Kind::Negated,
    Kind::Disjunctive,
    Kind::CompoundNegated,
    Kind::Demographic,
    Kind::CompoundNegated,
    Kind::Counted,
];

/// Chronic-condition codes of the synthetic population (ICPC-2, ICD-10).
const CHRONIC: [&str; 20] = [
    "T90", "K86", "K74", "K77", "R95", "R96", "P76", "K78", "L90", "L88", "E11", "I10", "I20",
    "I50", "J44", "J45", "F32", "I48", "M17", "M06",
];

/// The rare chronic codes outside ICPC-2 chapter K: at most one patient
/// in forty has any of them, so `has(K.*) and lacks(B)` with `B` among
/// them keeps 96.5 to 99.8% of the chapter (68,091 to 70,392 of its
/// 70,536 patients at 168k), whichever `B`. A common code (`L90`, `R95`,
/// `T90`) takes up to a quarter of the chapter away, and the cost of a
/// cohort read follows the cohort.
const RARE_NOT_K: [&str; 8] = ["L88", "E11", "I10", "J45", "F32", "I48", "M17", "M06"];

/// Chapter prefixes wide enough to select tens of thousands of patients.
const CHAPTERS: [&str; 3] = ["K.*", "I.*", "R.*"];

/// The code of `count(X) >= n`. One code only: the p95 select falls in
/// the counted class, whose cost follows the code's posting list.
const COUNTED: &str = "T90";

/// The view phase's fixed command cycle (ISSUE 11): three sort keys,
/// align, two filters, then both cleared. Each is followed by
/// `GET /cohort.svg?w=1200&h=700`.
pub const VIEW_CYCLE: [(&str, &str); 8] = [
    ("sort", r#"{"command":"sort","key":"entry_count"}"#),
    ("sort", r#"{"command":"sort","key":"span"}"#),
    ("sort", r#"{"command":"sort","key":"first_entry"}"#),
    ("align", r#"{"command":"align","pattern":"T90"}"#),
    ("filter", r#"{"command":"filter","kind":"diagnosis"}"#),
    ("filter", r#"{"command":"filter","code":"K.*"}"#),
    ("align", r#"{"command":"clear_alignment"}"#),
    ("filter", r#"{"command":"filter"}"#),
];

/// The view the view phase fetches after each command.
pub const VIEW_SVG_PATH: &str = "/cohort.svg?w=1200&h=700";

/// One `seq(...)` request of the temporal battery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalRequest {
    /// Shape name, as in E13.
    pub shape: &'static str,
    /// Query text.
    pub query: String,
}

/// The four E13 shapes, in battery order.
pub const SHAPES: [&str; 4] = [
    "two_step_gap",
    "two_step_tight",
    "three_step_medication",
    "four_step_mixed",
];

/// SplitMix64: small, seedable, and owned by this file, so the request
/// list of a seed cannot change under the benchmark.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[(self.next() % items.len() as u64) as usize]
    }
}

/// Independent random streams of one seed. A phase draws from its own
/// stream, so how many sessions the time-bounded cohort phase ran does
/// not change which battery round comes first.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Cohort,
    Temporal,
    Misc,
}

/// The seeded request generator. Every query it hands out has a canonical
/// fingerprint no earlier query of this generator had, which is what makes
/// the response cache and the selection cache miss.
pub struct Generator {
    streams: [Rng; 3],
    seen: HashSet<String>,
    reference: Date,
}

impl Generator {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Generator {
        let mut root = Rng(seed);
        Generator {
            streams: [Rng(root.next()), Rng(root.next()), Rng(root.next())],
            seen: HashSet::new(),
            // Only fixes the `age@` part of fingerprints; the server
            // parses against its own reference date.
            reference: Date::new(2013, 1, 1).expect("valid date"),
        }
    }

    /// A generator for a second client (the live phase's reader): its own
    /// random streams, and every fingerprint this one has handed out so
    /// far, so the two never issue the same query. [`Generator::absorb`]
    /// brings the child's fingerprints back.
    pub fn fork(&mut self) -> Generator {
        let mut root = Rng(self.streams[Stream::Misc as usize].next());
        Generator {
            streams: [Rng(root.next()), Rng(root.next()), Rng(root.next())],
            seen: self.seen.clone(),
            reference: self.reference,
        }
    }

    /// Take over the fingerprints a forked generator handed out.
    pub fn absorb(&mut self, child: Generator) {
        self.seen.extend(child.seen);
    }

    /// Canonical fingerprint of `text`, as the server would compute it.
    fn fingerprint(&self, text: &str) -> String {
        let query = parse_query(text, self.reference)
            .unwrap_or_else(|e| panic!("generated query {text:?} does not parse: {e}"));
        canonical_fingerprint(&query)
    }

    /// Draw from `draw` until the query's fingerprint is new. `draw` gets
    /// the number of draws that have collided so far and widens one of its
    /// ranges by it, so a template whose first ranges are used up (5,040
    /// compound-negated queries, 61 gap bounds of `two_step_tight`) moves
    /// on to new values instead of spinning, however long or fast a run
    /// is. Until then the ranges are the ones written down below.
    fn fresh(&mut self, stream: Stream, mut draw: impl FnMut(&mut Rng, u64) -> String) -> String {
        let mut collisions = 0;
        loop {
            let text = draw(&mut self.streams[stream as usize], collisions);
            if self.seen.insert(self.fingerprint(&text)) {
                return text;
            }
            collisions += 1;
        }
    }

    /// One to three distinct chronic codes as a regex alternation; one
    /// code more for every eight collisions.
    fn code_set(rng: &mut Rng, collisions: u64) -> String {
        let most = (3 + collisions / 8).min(CHRONIC.len() as u64);
        let n = rng.range(1, most) as usize;
        let mut codes: Vec<&str> = Vec::with_capacity(n);
        while codes.len() < n {
            let code = rng.pick(&CHRONIC);
            if !codes.contains(&code) {
                codes.push(code);
            }
        }
        codes.sort_unstable();
        codes.join("|")
    }

    /// An age clause that keeps nearly every adult: it makes fingerprints
    /// distinct and sends the query through the residual filter. The
    /// upper bound widens with the `collisions`; no patient is that old,
    /// so the cohort stays what it was.
    fn age_clause(rng: &mut Rng, collisions: u64) -> String {
        let (youngest, oldest) = (rng.range(18, 30), rng.range(90, 110 + collisions));
        format!("age({youngest}..{oldest})")
    }

    /// An age clause that keeps every patient (the population is 18 to 95
    /// years old when its window starts): distinct fingerprints and a pass
    /// through the residual filter, as [`Generator::age_clause`], but the
    /// cohort, and so the cost of every read of it, does not depend on the
    /// draw (an upper bound of 91 cuts a compound cohort at 1M from
    /// 410,000 patients to 337,000).
    fn whole_life_clause(rng: &mut Rng, collisions: u64) -> String {
        let (youngest, oldest) = (rng.range(0, 17), rng.range(106, 140 + collisions));
        format!("age({youngest}..{oldest})")
    }

    /// A set-algebra query of `kind` with a fresh fingerprint.
    pub fn cohort_query(&mut self, kind: Kind) -> String {
        self.fresh(Stream::Cohort, |rng, collisions| match kind {
            Kind::Positive => format!("has({})", Generator::code_set(rng, collisions)),
            Kind::Negated => format!("lacks({})", Generator::code_set(rng, collisions)),
            // One chapter, a rare `lacks` code outside it and an age
            // clause that keeps everyone: the cohort-read metrics are
            // medians over this kind, so its cohorts differ in size by
            // three percent between draws, not by the factor of three
            // that separates the chapters.
            Kind::CompoundNegated => format!(
                "has(K.*) and lacks({}) and {}",
                rng.pick(&RARE_NOT_K),
                Generator::whole_life_clause(rng, collisions)
            ),
            Kind::Counted => {
                format!(
                    "count({COUNTED}) >= {} and {}",
                    rng.range(2, 4),
                    Generator::age_clause(rng, collisions)
                )
            }
            Kind::Disjunctive => {
                format!(
                    "has({}) or has({})",
                    Generator::code_set(rng, collisions),
                    Generator::code_set(rng, collisions)
                )
            }
            Kind::Demographic => format!(
                "sex({}) and {} and has({})",
                rng.pick(&["F", "M"]),
                Generator::age_clause(rng, collisions),
                rng.pick(&CHAPTERS)
            ),
        })
    }

    /// The query of cohort session `index` under `mix`.
    pub fn session_query(&mut self, mix: CohortMix, index: usize) -> (Kind, String) {
        let kind = match mix {
            CohortMix::Mixed => SESSION_CYCLE[index % SESSION_CYCLE.len()],
            CohortMix::CompoundOnly => Kind::CompoundNegated,
        };
        (kind, self.cohort_query(kind))
    }

    /// One round of the battery: the four E13 shapes, each with seeded gap
    /// bounds drawn around E13's own (and a day wider per collision).
    pub fn temporal_round(&mut self) -> [TemporalRequest; 4] {
        const DM: &str = "T90|T89|E1[014].*";
        const HT: &str = "K8[5-7]|I1[0-5].*";
        let t = Stream::Temporal;
        let queries = [
            self.fresh(t, |r, n| {
                format!("seq({DM} then[0d..{}d] K.*)", r.range(3000, 3650 + n))
            }),
            self.fresh(t, |r, n| {
                format!("seq({HT} then[0d..{}d] {DM})", r.range(60, 120 + n))
            }),
            self.fresh(t, |r, n| {
                format!(
                    "seq({DM} then[0d..{}d] medication then[0d..{}d] K.*)",
                    r.range(600, 800 + n),
                    r.range(300, 420)
                )
            }),
            self.fresh(t, |r, n| {
                format!(
                    "seq(K.* then[0d..{}d] {DM} then[-{}d..{}d] {HT} then any)",
                    r.range(300, 420),
                    r.range(15, 45),
                    r.range(600, 800 + n)
                )
            }),
        ];
        let mut shapes = SHAPES.iter();
        queries.map(|query| TemporalRequest {
            shape: shapes.next().expect("four shapes"),
            query,
        })
    }

    fn misc(&mut self) -> &mut Rng {
        &mut self.streams[Stream::Misc as usize]
    }

    /// A code set for the `has(X) + lacks(X) = patients` invariant probe.
    pub fn invariant_codes(&mut self) -> String {
        Generator::code_set(self.misc(), 0)
    }

    /// The timeline page of one of the `patients` served (ids are `1..=n`).
    pub fn patient_path(&mut self, patients: usize) -> String {
        format!("/timeline/P{}", self.misc().range(1, patients as u64))
    }

    /// Where in the delta stream this run starts: a claims increment in
    /// the first third of the `alternating` events, which leaves more than
    /// a hundred alternating events and two hundred in all ahead at 2,000
    /// delta patients. The live phase ends early if it uses them up.
    pub fn chunk_offset(&mut self, alternating: usize) -> usize {
        2 * (self.misc().next() % (alternating / 6).max(1) as u64) as usize
    }
}

/// Rows per streamed increment, as in E11.
const CHUNK_ROWS: usize = 200;

/// Delta patients and their seed, as in E11.
const DELTA_PATIENTS: usize = 2_000;
const DELTA_SEED: u64 = 4077;

/// Split one source text into `CHUNK_ROWS`-row increments, each carrying
/// the header line so every chunk is a well-formed file of its own.
fn chunks(text: &str) -> Vec<String> {
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return Vec::new();
    };
    let rows: Vec<&str> = lines.collect();
    rows.chunks(CHUNK_ROWS)
        .map(|rows| {
            let mut out = String::with_capacity(header.len() + rows.len() * 48);
            out.push_str(header);
            out.push('\n');
            for row in rows {
                out.push_str(row);
                out.push('\n');
            }
            out
        })
        .collect()
}

/// The delta stream of the live phase.
pub struct DeltaStream {
    /// Untimed preamble: the person register (the linkage anchor), then
    /// the two short sources, hospital (3 increments) and municipal (2).
    pub preamble: Vec<(DeltaFormat, String)>,
    /// The timed stream: claims and prescriptions as alternating 200-row
    /// increments while the claims last, then prescriptions alone.
    pub events: Vec<(DeltaFormat, String)>,
    /// Events at the head of `events` that alternate between the two
    /// sources. A run starts among them, so that every run streams the
    /// same mix whatever its seed.
    pub alternating: usize,
}

/// 2,000 delta patients from `generate_population` seed 4077, emitted as
/// raw sources and chunked, as in E11. The stream extends patients the
/// server already holds with fresh events: the side-index path. Unlike
/// E11 it injects no duplicate rows and no pre-birth dates, so that nearly
/// every entry a receipt promises is applied and the epilogue can hold the
/// two totals within 1% of each other.
pub fn delta_stream() -> DeltaStream {
    let population = generate_population(SynthConfig::with_patients(DELTA_PATIENTS), DELTA_SEED);
    let mess = MessConfig {
        duplicate_prob: 0.0,
        invalid_date_prob: 0.0,
        ..MessConfig::default()
    };
    let raw = emit(&population, mess);
    let of = |format: DeltaFormat, text: &str| -> Vec<(DeltaFormat, String)> {
        chunks(text)
            .into_iter()
            .map(|chunk| (format, chunk))
            .collect()
    };
    let mut preamble = of(DeltaFormat::Persons, &raw.persons);
    preamble.extend(of(DeltaFormat::Hospital, &raw.hospital));
    preamble.extend(of(DeltaFormat::Municipal, &raw.municipal));
    let mut claims = of(DeltaFormat::Claims, &raw.claims).into_iter();
    let mut prescriptions = of(DeltaFormat::Prescriptions, &raw.prescriptions).into_iter();
    let mut events = Vec::new();
    let mut alternating = 0;
    loop {
        match (claims.next(), prescriptions.next()) {
            (Some(claim), Some(prescription)) => {
                events.extend([claim, prescription]);
                alternating = events.len();
            }
            (None, None) => break,
            (claim, prescription) => events.extend(claim.into_iter().chain(prescription)),
        }
    }
    DeltaStream {
        preamble,
        events,
        alternating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first units of every seeded stream, rendered as text.
    fn request_list(seed: u64) -> String {
        let mut g = Generator::new(seed);
        let mut out = String::new();
        for mix in [CohortMix::Mixed, CohortMix::CompoundOnly] {
            for i in 0..64 {
                let (kind, query) = g.session_query(mix, i);
                out.push_str(&format!("{kind:?} {query}\n"));
            }
        }
        for _ in 0..16 {
            for request in g.temporal_round() {
                out.push_str(&format!("{} {}\n", request.shape, request.query));
            }
        }
        out.push_str(&g.invariant_codes());
        out.push_str(&g.patient_path(168_000));
        out.push_str(&g.chunk_offset(166).to_string());
        out
    }

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        assert_eq!(request_list(1).as_bytes(), request_list(1).as_bytes());
        assert_eq!(request_list(7).as_bytes(), request_list(7).as_bytes());
        assert_ne!(request_list(1), request_list(7));
    }

    #[test]
    fn every_generated_query_has_a_distinct_canonical_fingerprint() {
        for seed in [1, 7] {
            let mut g = Generator::new(seed);
            let mut texts = Vec::new();
            for i in 0..600 {
                texts.push(g.session_query(CohortMix::Mixed, i).1);
            }
            for i in 0..200 {
                texts.push(g.session_query(CohortMix::CompoundOnly, i).1);
            }
            for _ in 0..30 {
                texts.extend(g.temporal_round().map(|r| r.query));
            }
            // Checked against the query crate directly, not the
            // generator's own bookkeeping.
            let reference = Date::new(2014, 12, 31).expect("valid date");
            let prints: HashSet<String> = texts
                .iter()
                .map(|t| canonical_fingerprint(&parse_query(t, reference).expect("parses")))
                .collect();
            assert_eq!(
                prints.len(),
                texts.len(),
                "seed {seed}: a fingerprint repeated"
            );
        }
    }

    #[test]
    fn mixed_sessions_follow_the_cycle_and_rounds_hold_the_four_shapes() {
        let mut g = Generator::new(3);
        for i in 0..16 {
            assert_eq!(g.session_query(CohortMix::Mixed, i).0, SESSION_CYCLE[i % 8]);
        }
        assert_eq!(
            g.session_query(CohortMix::CompoundOnly, 0).0,
            Kind::CompoundNegated
        );
        let round = g.temporal_round();
        assert_eq!(round.each_ref().map(|r| r.shape), SHAPES);
        assert!(round.iter().all(|r| r.query.starts_with("seq(")));
    }

    #[test]
    fn no_template_runs_out_of_fingerprints() {
        // More draws than the templates' first ranges hold: 5,040
        // compound-negated queries, 819 counted ones, 1,350 code sets,
        // 61 gap bounds of `two_step_tight`.
        let mut g = Generator::new(5);
        let mut child = g.fork();
        for kind in Kind::ALL {
            for _ in 0..5_200 {
                g.cohort_query(kind);
            }
        }
        for _ in 0..300 {
            g.temporal_round();
        }
        assert_eq!(g.seen.len(), 6 * 5_200 + 4 * 300);
        // A fork draws on from where its parent was.
        for _ in 0..5_200 {
            child.cohort_query(Kind::CompoundNegated);
        }
        assert_eq!(child.seen.len(), 5_200);
    }

    #[test]
    fn workload_shares_cover_the_run() {
        assert_eq!(WORKLOADS.len(), 2);
        for spec in &WORKLOADS {
            for driven in [&UNTRACED_PHASES[..], &TRACED_PHASES[..]] {
                let total: f64 = TRACED_PHASES.iter().map(|&p| spec.share(p, driven)).sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "{}: shares sum to {total}",
                    spec.name
                );
            }
            // The weights of the untraced phases are their shares.
            let cohort = spec.share(Phase::Cohort, &UNTRACED_PHASES);
            assert!((cohort - spec.shares[Phase::Cohort as usize]).abs() < 1e-9);
            assert_eq!(spec.share(Phase::Temporal, &UNTRACED_PHASES), 0.0);
            assert_eq!(spec.share(Phase::Warm, &UNTRACED_PHASES), 0.0);
            assert!(spec.shares.iter().all(|&s| s > 0.0), "{}", spec.name);
            assert_eq!(
                super::spec(spec.name).map(|s| s.patients),
                Some(spec.patients)
            );
        }
        assert!(super::spec("nope").is_none());
    }

    #[test]
    fn delta_stream_alternates_claims_and_prescriptions() {
        let stream = delta_stream();
        let persons = DELTA_PATIENTS / CHUNK_ROWS;
        assert!(stream.preamble[..persons]
            .iter()
            .all(|(f, _)| *f == DeltaFormat::Persons));
        for format in [DeltaFormat::Hospital, DeltaFormat::Municipal] {
            assert!(
                stream.preamble[persons..].iter().any(|(f, _)| *f == format),
                "{format:?}"
            );
        }
        assert!(
            stream.alternating > 150,
            "{} alternating events",
            stream.alternating
        );
        assert!(stream.events.len() > stream.alternating);
        for (i, (format, chunk)) in stream.events.iter().enumerate() {
            assert!(chunk.lines().count() <= CHUNK_ROWS + 1);
            if i < stream.alternating {
                let expected = if i % 2 == 0 {
                    DeltaFormat::Claims
                } else {
                    DeltaFormat::Prescriptions
                };
                assert_eq!(*format, expected, "event {i}");
            }
        }
        // Every seed starts on a claims increment with room ahead.
        for seed in 0..50 {
            let offset = Generator::new(seed).chunk_offset(stream.alternating);
            assert!(
                offset.is_multiple_of(2) && offset + 100 < stream.alternating,
                "seed {seed}: {offset}"
            );
        }
    }
}
