//! The phases of a run, driven over the loopback socket.
//!
//! Every phase is time-bounded: it runs whole units (a cycle of cohort
//! sessions, a battery round, a command cycle, a block of warm requests,
//! a pair of ingest batches) until its share of `--seconds` is used up,
//! and at least one. An untraced run drives cohort, view and live, the
//! phases its end-to-end metrics come from; a traced run drives all five.
//! The read-side phases (cohort, temporal, view) are interleaved; the
//! warm phase runs before and after them, not among them, because view
//! commands publish versions and would empty the response cache under it;
//! the live phase comes last, because it changes the collection.
//! Latencies are taken at the client socket, around the request alone;
//! checking the answer happens after the clock stops.
//!
//! In a traced run each phase runs twice: first traced (socket call under
//! a `client.<op>` span, then the in-process replays of [`crate::replay`]),
//! then untraced, so that `trace.overhead_share.<op>` compares the two
//! socket medians of one process.

use crate::check::{cohort_id, json_u64, parse_select, Tally, VersionWatch};
use crate::client::Client;
use crate::replay;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    delta_stream, CohortMix, Generator, Kind, Phase, Spec, TemporalRequest, SESSION_CYCLE, SHAPES,
    VIEW_CYCLE, VIEW_SVG_PATH,
};
use pastas_core::{CohortRegistry, RegistryConfig};
use pastas_ingest::json::Json;
use pastas_ingest::DeltaFormat;
use pastas_serve::client::ClientResponse;
use pastas_serve::ServerHandle;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Client socket timeout: above the slowest single request at 1M
/// (`align` on a million histories, about 5 s).
const TIMEOUT: Duration = Duration::from_secs(60);

/// Named samples.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Add one sample.
    pub fn push(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(values) => values.push(value),
            None => {
                self.0.insert(name.to_owned(), vec![value]);
            }
        }
    }

    /// Add many samples.
    pub fn extend(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.0.entry(name.to_owned()).or_default().extend(values);
    }

    /// The samples under `name` (empty when there are none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// The nine operation classes per-layer metrics are broken down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Cold set-algebra `POST /select`.
    Select,
    /// Cold `seq(...)` `POST /select?count_only=1`.
    Temporal,
    /// `POST /cohort`.
    CohortMaterialize,
    /// `GET /cohort/{id}/stats`.
    CohortStats,
    /// `GET /cohort/{id}/timeline`.
    CohortTimeline,
    /// `GET /cohort/{id}.svg`.
    CohortSvg,
    /// `POST /command`.
    Command,
    /// `GET /cohort.svg` after a command.
    ViewSvg,
    /// `POST /ingest`.
    Ingest,
}

impl Op {
    /// Every op, in reporting order.
    pub const ALL: [Op; 9] = [
        Op::Select,
        Op::Temporal,
        Op::CohortMaterialize,
        Op::CohortStats,
        Op::CohortTimeline,
        Op::CohortSvg,
        Op::Command,
        Op::ViewSvg,
        Op::Ingest,
    ];

    /// The `<op>` suffix of per-layer metric names.
    pub fn name(self) -> &'static str {
        self.spans().0
    }

    /// Span of the socket call.
    pub fn client_span(self) -> &'static str {
        self.spans().1
    }

    /// Span of the in-process `route()` call.
    pub fn route_span(self) -> &'static str {
        self.spans().2
    }

    /// Root span of the in-process stage replay.
    pub fn replay_span(self) -> &'static str {
        self.spans().3
    }

    fn spans(self) -> (&'static str, &'static str, &'static str, &'static str) {
        match self {
            Op::Select => ("select", "client.select", "route.select", "replay.select"),
            Op::Temporal => (
                "temporal",
                "client.temporal",
                "route.temporal",
                "replay.temporal",
            ),
            Op::CohortMaterialize => (
                "cohort_materialize",
                "client.cohort_materialize",
                "route.cohort_materialize",
                "replay.cohort_materialize",
            ),
            Op::CohortStats => (
                "cohort_stats",
                "client.cohort_stats",
                "route.cohort_stats",
                "replay.cohort_stats",
            ),
            Op::CohortTimeline => (
                "cohort_timeline",
                "client.cohort_timeline",
                "route.cohort_timeline",
                "replay.cohort_timeline",
            ),
            Op::CohortSvg => (
                "cohort_svg",
                "client.cohort_svg",
                "route.cohort_svg",
                "replay.cohort_svg",
            ),
            Op::Command => (
                "command",
                "client.command",
                "route.command",
                "replay.command",
            ),
            Op::ViewSvg => (
                "view_svg",
                "client.view_svg",
                "route.view_svg",
                "replay.view_svg",
            ),
            Op::Ingest => ("ingest", "client.ingest", "route.ingest", "replay.ingest"),
        }
    }
}

/// Everything a phase reads and writes.
pub struct Run<'a> {
    /// The workload being run.
    pub spec: &'a Spec,
    /// Patients actually served (the spec's, unless overridden for a
    /// smoke run).
    pub patients: usize,
    /// The server under test.
    pub handle: &'a ServerHandle,
    /// The main closed-loop client.
    pub client: Client,
    /// The seeded request generator.
    pub generator: Generator,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Monotone-version check across every response that carries one.
    pub versions: VersionWatch,
    /// Socket latencies of the untraced pass, in ms.
    pub socket: Samples,
    /// Socket latencies of the traced pass, in ms.
    pub traced_socket: Samples,
    /// Per-layer samples that are not span durations.
    pub layers: Samples,
    /// Single-valued results: throughputs, peaks, counts.
    pub gauges: BTreeMap<&'static str, f64>,
    /// The span recorder; `Some` in a traced run.
    pub tracer: Option<Tracer>,
    /// A registry of the harness's own for the materialize replay, so
    /// replays do not evict the server's handles.
    pub registry: CohortRegistry,
    next_request: u64,
}

impl<'a> Run<'a> {
    /// A run against `handle`.
    pub fn new(
        spec: &'a Spec,
        patients: usize,
        handle: &'a ServerHandle,
        seed: u64,
        traced: bool,
    ) -> Run<'a> {
        Run {
            spec,
            patients,
            handle,
            client: Client::new(handle.addr(), TIMEOUT),
            generator: Generator::new(seed),
            tally: Tally::default(),
            versions: VersionWatch::default(),
            socket: Samples::default(),
            traced_socket: Samples::default(),
            layers: Samples::default(),
            gauges: BTreeMap::new(),
            tracer: traced.then(|| Tracer::with_capacity(1 << 16)),
            registry: CohortRegistry::new(RegistryConfig::default()),
            next_request: 0,
        }
    }

    /// The socket samples of the traced or of the untraced pass.
    fn samples(&mut self, traced: bool) -> &mut Samples {
        if traced {
            &mut self.traced_socket
        } else {
            &mut self.socket
        }
    }

    /// A fresh request identifier.
    pub fn begin_request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Send one request of class `op`, timed at the socket. In a traced
    /// pass the call is the `client.<op>` span of request `rid`.
    fn socket_call(
        &mut self,
        op: Op,
        rid: u64,
        traced: bool,
        send: impl FnOnce(&mut Client) -> io::Result<ClientResponse>,
    ) -> (f64, io::Result<ClientResponse>) {
        let client = &mut self.client;
        let start = Instant::now();
        let result = match self.tracer.as_mut().filter(|_| traced) {
            Some(tracer) => tracer.leaf(op.client_span(), rid, || send(client)),
            None => send(client),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples(traced).push(op.name(), ms);
        (ms, result)
    }

    /// Count one operation: `want` status, then `inspect` on the response.
    fn judge<T>(
        &mut self,
        what: &str,
        result: io::Result<ClientResponse>,
        want: u16,
        inspect: impl FnOnce(&mut Run<'a>, &ClientResponse) -> Result<T, String>,
    ) -> Option<T> {
        let outcome = match result {
            Err(e) => Err(format!("{what}: {e}")),
            Ok(response) if response.status != want => {
                Err(format!("{what}: status {} (want {want})", response.status))
            }
            Ok(response) => inspect(self, &response).map_err(|e| format!("{what}: {e}")),
        };
        match outcome {
            Ok(value) => {
                self.tally.record(Ok(()));
                Some(value)
            }
            Err(reason) => {
                self.tally.record(Err(reason));
                None
            }
        }
    }

    /// The handle id and count of a `POST /cohort` body.
    fn cohort_reply(&mut self, response: &ClientResponse) -> Result<(String, u64), String> {
        let doc = Json::parse(&response.body_str()).map_err(|e| e.to_string())?;
        self.versions.observe(json_u64(&doc, &["version"])?)?;
        let id = cohort_id(&response.body_str()).ok_or("no id in response")?;
        Ok((id, json_u64(&doc, &["count"])?))
    }

    /// `GET /metrics`, parsed. Not counted as an operation of its own.
    pub fn metrics(&mut self) -> Result<Json, String> {
        let response = self
            .client
            .get("/metrics")
            .map_err(|e| format!("/metrics: {e}"))?;
        if response.status != 200 {
            return Err(format!("/metrics: status {}", response.status));
        }
        Json::parse(&response.body_str()).map_err(|e| format!("/metrics: {e}"))
    }
}

// ---------------------------------------------------------------------
// Interactive phases: cohort, temporal, view, interleaved
// ---------------------------------------------------------------------

/// Progress of one interleaved phase.
struct Lane {
    phase: Phase,
    /// Units that bring the lane back to a boundary: a cycle over the
    /// session kinds, a battery round of four requests, a command cycle
    /// of eight interactions. A lane always finishes the one it is in, so
    /// that a median is taken over the same mix whatever the run length,
    /// and the view ends in calendar mode with no filter.
    stride: usize,
    budget: Duration,
    spent: Duration,
    units: usize,
}

impl Lane {
    fn at_boundary(&self) -> bool {
        self.units > 0 && self.units.is_multiple_of(self.stride)
    }

    /// Share of its budget the lane has spent.
    fn progress(&self) -> f64 {
        self.spent.as_secs_f64() / self.budget.as_secs_f64()
    }
}

/// The three read-side phases, interleaved: the next unit always goes to
/// the phase that is furthest behind its share, so every metric samples
/// the whole window and a slow second on a shared machine does not land
/// on one metric alone. The phases do not disturb each other: every query
/// is new to the caches, and a cohort session reads its handle before any
/// view command can publish a version that would make it stale.
///
/// A phase with no budget (the battery in an untraced run) is left out.
pub fn interactive_phases(run: &mut Run<'_>, budgets: [Duration; 3], traced: bool) {
    let sessions = match run.spec.cohort_mix {
        CohortMix::Mixed => SESSION_CYCLE.len(),
        CohortMix::CompoundOnly => 1,
    };
    let mut lanes: Vec<Lane> = [
        (Phase::Cohort, sessions),
        (Phase::Temporal, SHAPES.len()),
        (Phase::View, VIEW_CYCLE.len()),
    ]
    .into_iter()
    .filter(|(phase, _)| !budgets[*phase as usize].is_zero())
    .map(|(phase, stride)| Lane {
        phase,
        stride,
        budget: budgets[phase as usize],
        spent: Duration::ZERO,
        units: 0,
    })
    .collect();
    let total: Duration = budgets.iter().sum();
    let started = Instant::now();
    let mut round = run.generator.temporal_round();
    loop {
        let over = started.elapsed() >= total;
        let next = lanes
            .iter_mut()
            .filter(|lane| !(over && lane.at_boundary()))
            .min_by(|a, b| a.progress().total_cmp(&b.progress()));
        let Some(lane) = next else { break };
        let unit_started = Instant::now();
        match lane.phase {
            Phase::Cohort => session(run, lane.units, traced),
            Phase::Temporal => {
                let slot = lane.units % SHAPES.len();
                if slot == 0 && lane.units > 0 {
                    round = run.generator.temporal_round();
                }
                temporal_request(run, &round[slot], slot, lane.units < SHAPES.len(), traced);
            }
            _ => interaction(run, lane.units % VIEW_CYCLE.len(), traced),
        }
        lane.spent += unit_started.elapsed();
        lane.units += 1;
    }
    invariant_probe(run);
}

/// Refinement selects before the one a session materializes: an analyst
/// narrows a query down on counts before freezing a cohort. They also
/// bring the select sample past the 200 a p95 needs.
const REFINEMENTS: usize = 3;

/// One cold select, checked. Returns its count.
fn select(run: &mut Run<'_>, rid: u64, query: &str, count_only: bool, traced: bool) -> Option<u64> {
    let path = if count_only {
        "/select?count_only=1"
    } else {
        "/select"
    };
    let (_, reply) = run.socket_call(Op::Select, rid, traced, |c| c.post(path, query.as_bytes()));
    run.judge(query, reply, 200, |run, response| {
        let reply = parse_select(&response.body_str())?;
        run.versions.observe(reply.version)?;
        if reply.ids.is_some() == count_only {
            return Err(format!(
                "count_only={count_only} but ids present={}",
                !count_only
            ));
        }
        Ok(reply.count)
    })
}

/// The cohort reads of the sessions of the paper's shape (compound-negated
/// queries, whose cohorts are all of one size): what `cohort_stats_p50_ms`,
/// `cohort_timeline_p50_ms` and `cohort_svg_p50_ms` are medians of. The
/// reads of every session go under the op's own name.
pub const PAPER_STATS: &str = "cohort_stats.paper";
/// See [`PAPER_STATS`].
pub const PAPER_TIMELINE: &str = "cohort_timeline.paper";
/// See [`PAPER_STATS`].
pub const PAPER_SVG: &str = "cohort_svg.paper";

/// One cold cohort session: three count-only refinement selects, the
/// final select (even sessions `count_only=1`, odd sessions with ids),
/// `POST /cohort`, then stats, timeline and the histogram panel of the
/// frozen cohort.
fn session(run: &mut Run<'_>, index: usize, traced: bool) {
    let rid = run.begin_request();
    for step in 0..REFINEMENTS {
        let (_, query) = run
            .generator
            .session_query(run.spec.cohort_mix, index * REFINEMENTS + step);
        select(run, rid, &query, true, traced);
    }
    let (kind, query) = run.generator.session_query(run.spec.cohort_mix, index);
    let count_only = index.is_multiple_of(2);
    let Some(selected) = select(run, rid, &query, count_only, traced) else {
        return;
    };
    let (_, reply) = run.socket_call(Op::CohortMaterialize, rid, traced, |c| {
        c.post("/cohort", query.as_bytes())
    });
    let Some(id) = run.judge("POST /cohort", reply, 201, |run, response| {
        let (id, count) = run.cohort_reply(response)?;
        if count != selected {
            return Err(format!("handle count {count}, select count {selected}"));
        }
        Ok(id)
    }) else {
        return;
    };
    let stats_path = format!("/cohort/{id}/stats");
    let (stats_ms, reply) = run.socket_call(Op::CohortStats, rid, traced, |c| c.get(&stats_path));
    run.judge(&stats_path, reply, 200, |_, response| {
        let doc = Json::parse(&response.body_str()).map_err(|e| e.to_string())?;
        let total = json_u64(&doc, &["profile", "cohort_size"])?;
        if total != selected {
            return Err(format!("profile total {total}, handle count {selected}"));
        }
        Ok(())
    });
    let timeline_path = format!("/cohort/{id}/timeline");
    let (timeline_ms, reply) =
        run.socket_call(Op::CohortTimeline, rid, traced, |c| c.get(&timeline_path));
    run.judge(&timeline_path, reply, 200, |_, response| {
        let doc = Json::parse(&response.body_str()).map_err(|e| e.to_string())?;
        let count = json_u64(&doc, &["count"])?;
        if count != selected {
            return Err(format!("timeline count {count}, handle count {selected}"));
        }
        doc.get("months")
            .and_then(Json::as_array)
            .map(|_| ())
            .ok_or("no months".to_owned())
    });
    let svg_path = format!("/cohort/{id}.svg");
    let (svg_ms, reply) = run.socket_call(Op::CohortSvg, rid, traced, |c| c.get(&svg_path));
    run.judge(&svg_path, reply, 200, |_, response| {
        if response.body.starts_with(b"<svg") {
            Ok(())
        } else {
            Err("body is not an SVG document".to_owned())
        }
    });
    if kind == Kind::CompoundNegated {
        let samples = run.samples(traced);
        samples.push(PAPER_STATS, stats_ms);
        samples.push(PAPER_TIMELINE, timeline_ms);
        samples.push(PAPER_SVG, svg_ms);
    }
    if traced {
        replay::session(run, rid, index, &query, count_only, &id);
    }
}

/// `has(X) + lacks(X)` must equal the patient count.
fn invariant_probe(run: &mut Run<'_>) {
    let codes = run.generator.invariant_codes();
    let mut counts = [0u64; 2];
    for (slot, clause) in counts.iter_mut().zip(["has", "lacks"]) {
        let query = format!("{clause}({codes})");
        let reply = run.client.post("/select?count_only=1", query.as_bytes());
        let Some(count) = run.judge(&query, reply, 200, |_, r| {
            parse_select(&r.body_str()).map(|s| s.count)
        }) else {
            return;
        };
        *slot = count;
    }
    let patients = run.patients as u64;
    let outcome = if counts[0] + counts[1] == patients {
        Ok(())
    } else {
        Err(format!(
            "has({codes}) {} + lacks {} != {patients} patients",
            counts[0], counts[1]
        ))
    };
    run.tally.record(outcome);
}

/// One request of the `seq(...)` battery, cold, `count_only=1`. Samples
/// go under `temporal` and `temporal.<shape>`.
fn temporal_request(
    run: &mut Run<'_>,
    request: &TemporalRequest,
    shape: usize,
    first_round: bool,
    traced: bool,
) {
    let rid = run.begin_request();
    let (ms, reply) = run.socket_call(Op::Temporal, rid, traced, |c| {
        c.post("/select?count_only=1", request.query.as_bytes())
    });
    run.samples(traced)
        .push(&format!("temporal.{}", request.shape), ms);
    let ok = run.judge(&request.query, reply, 200, |run, response| {
        let reply = parse_select(&response.body_str())?;
        run.versions.observe(reply.version)
    });
    if traced && ok.is_some() {
        replay::temporal(run, rid, shape, &request.query, first_round);
    }
}

/// Geometric mean of the four per-shape medians of a sample set.
pub fn temporal_geomean(samples: &Samples) -> f64 {
    let medians: Vec<f64> = SHAPES
        .iter()
        .map(|s| stats::median(samples.get(&format!("temporal.{s}"))))
        .collect();
    stats::geomean(&medians)
}

/// One interaction of the visual-exploration loop: a view command, then a
/// fresh SVG. `view` is command plus SVG.
fn interaction(run: &mut Run<'_>, step: usize, traced: bool) {
    let body = VIEW_CYCLE[step].1;
    let rid = run.begin_request();
    let (command_ms, reply) = run.socket_call(Op::Command, rid, traced, |c| {
        c.post("/command", body.as_bytes())
    });
    let ok = run.judge(body, reply, 200, |run, response| {
        let doc = Json::parse(&response.body_str()).map_err(|e| e.to_string())?;
        run.versions.observe(json_u64(&doc, &["version"])?)
    });
    if ok.is_none() {
        return;
    }
    let (svg_ms, reply) = run.socket_call(Op::ViewSvg, rid, traced, |c| c.get(VIEW_SVG_PATH));
    run.judge(VIEW_SVG_PATH, reply, 200, |_, response| {
        if response.body.starts_with(b"<svg") {
            Ok(())
        } else {
            Err("body is not an SVG document".to_owned())
        }
    });
    run.samples(traced).push("view", command_ms + svg_ms);
    if traced {
        replay::interaction(run, rid, step);
    }
}

// ---------------------------------------------------------------------
// Warm phase
// ---------------------------------------------------------------------

/// Clients of the warm phase: one per core of the reference box.
const WARM_CLIENTS: usize = 2;

/// Requests per timed block of a warm client: a whole number of cycles
/// over the eight URLs.
const WARM_BLOCK: usize = 96;

/// Steady-state dashboard traffic: two clients cycle over eight
/// pre-warmed URLs, every request a response-cache hit. Each client times
/// blocks of 96 requests; [`warm_rps`] is the sum over the clients of each
/// one's median block rate, which a stall of a few milliseconds on a
/// shared machine moves far less than requests over wall time. The block
/// rates go under `warm_blocks.<client>`.
pub fn warm_phase(run: &mut Run<'_>, budget: Duration, traced: bool) {
    // Pre-warm: four count-only selects, one select with ids, the stats of
    // a frozen cohort, the current view, one patient's timeline page.
    let mut urls: Vec<(&'static str, String, Vec<u8>)> = Vec::new();
    for _ in 0..4 {
        let (_, query) = run.generator.session_query(run.spec.cohort_mix, 1);
        urls.push((
            "POST",
            "/select?count_only=1".to_owned(),
            query.into_bytes(),
        ));
    }
    let (_, query) = run.generator.session_query(run.spec.cohort_mix, 1);
    let reply = run.client.post("/cohort", query.as_bytes());
    let Some((id, _)) = run.judge("POST /cohort", reply, 201, |run, r| run.cohort_reply(r)) else {
        return;
    };
    urls.push(("POST", "/select".to_owned(), query.into_bytes()));
    urls.push(("GET", format!("/cohort/{id}/stats"), Vec::new()));
    urls.push(("GET", VIEW_SVG_PATH.to_owned(), Vec::new()));
    urls.push(("GET", run.generator.patient_path(run.patients), Vec::new()));
    let mut expected: Vec<usize> = Vec::with_capacity(urls.len());
    for (method, path, body) in &urls {
        let reply = run.client.request(method, path, body);
        match run.judge(path, reply, 200, |_, response| Ok(response.body.len())) {
            Some(len) => expected.push(len),
            None => return,
        }
    }
    if traced {
        replay::warm_probes(run, &urls);
    }

    let addr = run.handle.addr();
    let deadline = Instant::now() + budget;
    let results: Vec<(Vec<f64>, u64, Tally)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WARM_CLIENTS)
            .map(|offset| {
                let (urls, expected) = (&urls, &expected);
                scope.spawn(move || {
                    let mut client = Client::new(addr, TIMEOUT);
                    let mut tally = Tally::default();
                    let mut rates = Vec::new();
                    let mut sent = 0usize;
                    while sent == 0 || Instant::now() < deadline {
                        let block = Instant::now();
                        for _ in 0..WARM_BLOCK {
                            let slot = (sent + offset) % urls.len();
                            let (method, path, body) = &urls[slot];
                            tally.record(match client.request(method, path, body) {
                                Ok(r) if r.status == 200 && r.body.len() == expected[slot] => {
                                    Ok(())
                                }
                                Ok(r) => Err(format!(
                                    "warm {path}: status {} with {} bytes",
                                    r.status,
                                    r.body.len()
                                )),
                                Err(e) => Err(format!("warm {path}: {e}")),
                            });
                            sent += 1;
                        }
                        rates.push(WARM_BLOCK as f64 / block.elapsed().as_secs_f64());
                    }
                    (rates, client.reconnects(), tally)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("warm client thread"))
            .collect()
    });
    for (client, (rates, reconnects, tally)) in results.into_iter().enumerate() {
        eprintln!(
            "warm client {client}: {} requests, {reconnects} reconnects",
            tally.attempted
        );
        run.tally.merge(tally);
        run.samples(traced)
            .extend(&format!("warm_blocks.{client}"), rates);
    }
}

/// `warm_rps`: the sum over the warm clients of each one's median block
/// rate, over the blocks of both halves of the phase.
pub fn warm_rps(samples: &Samples) -> f64 {
    (0..WARM_CLIENTS)
        .map(|client| stats::median(samples.get(&format!("warm_blocks.{client}"))))
        .sum()
}

// ---------------------------------------------------------------------
// Live phase
// ---------------------------------------------------------------------

/// How often the writer polls `/metrics` for visibility.
const POLL: Duration = Duration::from_millis(2);

/// What one pass of the live phase has to carry over to the next.
pub struct LiveState {
    preamble_posted: bool,
    cursor: usize,
    /// Entries the server 202'd, summed over receipts.
    pub receipt_entries: u64,
    /// Data rows the server read, summed over receipts.
    pub rows_read: u64,
    /// Rows it rejected (parse errors plus unlinked rows).
    pub rows_rejected: u64,
    stream: crate::workload::DeltaStream,
}

impl LiveState {
    /// Build the delta stream and pick this seed's starting chunk.
    pub fn new(generator: &mut Generator) -> LiveState {
        let stream = delta_stream();
        let cursor = generator.chunk_offset(stream.alternating);
        LiveState {
            preamble_posted: false,
            cursor,
            receipt_entries: 0,
            rows_read: 0,
            rows_rejected: 0,
            stream,
        }
    }

    /// The untimed preamble: persons, then the two short sources.
    pub fn preamble(&self) -> &[(DeltaFormat, String)] {
        &self.stream.preamble
    }

    /// The chunk [`LiveState::next_chunk`] will hand out next.
    pub fn peek_chunk(&self) -> Option<(DeltaFormat, String)> {
        self.stream.events.get(self.cursor).cloned()
    }

    /// Account for one accepted increment.
    pub fn accept(&mut self, receipt: &Receipt) {
        self.receipt_entries += receipt.entries;
        self.rows_read += receipt.rows_read;
        self.rows_rejected += receipt.rows_rejected;
    }

    /// The next chunk of the stream; `None` once it is used up. A chunk
    /// posted a second time would be dropped as a replay at application,
    /// and the receipts would no longer add up to the entries applied.
    pub fn next_chunk(&mut self) -> Option<(DeltaFormat, String)> {
        let chunk = self.peek_chunk()?;
        self.cursor += 1;
        Some(chunk)
    }
}

/// What a `202 Accepted` ingest response promises.
#[derive(Debug, Clone, Copy)]
pub struct Receipt {
    /// Entries queued for application.
    pub entries: u64,
    /// Data rows read.
    pub rows_read: u64,
    /// Rows rejected: parse errors plus unlinked rows.
    pub rows_rejected: u64,
}

impl Receipt {
    /// Parse the body of a `202` ingest response.
    pub fn parse(body: &str) -> Result<Receipt, String> {
        let doc = Json::parse(body).map_err(|e| e.to_string())?;
        Ok(Receipt {
            entries: json_u64(&doc, &["entries"])?,
            rows_read: json_u64(&doc, &["rows_read"])?,
            rows_rejected: json_u64(&doc, &["parse_errors"])? + json_u64(&doc, &["unlinked_rows"])?,
        })
    }
}

fn ingest_path(format: DeltaFormat) -> String {
    format!("/ingest?format={}", format.name())
}

/// Post one increment over the socket, timed.
fn post_ingest(
    run: &mut Run<'_>,
    rid: u64,
    traced: bool,
    format: DeltaFormat,
    text: &str,
) -> Option<Receipt> {
    let path = ingest_path(format);
    let (_, reply) = run.socket_call(Op::Ingest, rid, traced, |c| c.post(&path, text.as_bytes()));
    run.judge(&path, reply, 202, |_, response| {
        Receipt::parse(&response.body_str())
    })
}

/// Poll `/metrics` until nothing is queued or pending, tracking the
/// side-index peak on the way. An error ends the wait.
fn wait_visible(run: &mut Run<'_>) -> Result<(), String> {
    let give_up = Instant::now() + TIMEOUT;
    loop {
        let doc = run.metrics()?;
        let side_rows = json_u64(&doc, &["side_index_rows"])? as f64;
        let peak = run.gauges.entry("query.side_rows_peak").or_default();
        *peak = peak.max(side_rows);
        if json_u64(&doc, &["ingest_pending_entries"])? == 0
            && json_u64(&doc, &["ingest_queue_depth"])? == 0
        {
            return Ok(());
        }
        if Instant::now() > give_up {
            return Err("ingest not visible within the timeout".to_owned());
        }
        std::thread::sleep(POLL);
    }
}

/// Writes beside reads: after the untimed preamble (persons, hospital,
/// municipal) the writer streams 200-row increments of claims and
/// prescriptions, closed-loop on visibility (post, then poll `/metrics`
/// every 2 ms until nothing is pending), while a second connection runs
/// cold compound selects back to back. The server's own background
/// compactor does the applying.
pub fn live_phase(run: &mut Run<'_>, live: &mut LiveState, budget: Duration, traced: bool) {
    if !live.preamble_posted {
        // Untimed: posted by the plain client, not through `socket_call`.
        for (format, chunk) in live.stream.preamble.clone() {
            let path = ingest_path(format);
            let reply = run.client.post(&path, chunk.as_bytes());
            let receipt = run.judge(&path, reply, 202, |_, r| Receipt::parse(&r.body_str()));
            if let Some(receipt) = receipt {
                live.accept(&receipt);
            }
        }
        let visible = wait_visible(run);
        run.tally.record(visible);
        live.preamble_posted = true;
    }

    let addr = run.handle.addr();
    let stop = AtomicBool::new(false);
    let mut reader_generator = run.generator.fork();
    let (reader_ms, reader_tally, reader_generator) = std::thread::scope(|scope| {
        let stop = &stop;
        let reader = scope.spawn(move || {
            let mut client = Client::new(addr, TIMEOUT);
            let mut tally = Tally::default();
            let mut latencies = Vec::new();
            let mut versions = VersionWatch::default();
            while !stop.load(Ordering::SeqCst) {
                let query = reader_generator.cohort_query(Kind::CompoundNegated);
                let start = Instant::now();
                let reply = client.post("/select?count_only=1", query.as_bytes());
                latencies.push(start.elapsed().as_secs_f64() * 1e3);
                tally.record(match reply {
                    Ok(r) if r.status == 200 => parse_select(&r.body_str())
                        .and_then(|s| versions.observe(s.version))
                        .map_err(|e| format!("{query}: {e}")),
                    Ok(r) => Err(format!("{query}: status {} during ingest", r.status)),
                    Err(e) => Err(format!("{query}: {e}")),
                });
            }
            (latencies, tally, reader_generator)
        });

        let started = Instant::now();
        let deadline = started + budget;
        let (mut batches, mut entries) = (0usize, 0u64);
        // Whole pairs (a claims increment and a prescriptions one) until
        // the budget or the stream is used up, and at least one pair.
        while batches % 2 == 1 || batches == 0 || Instant::now() < deadline {
            if traced {
                replay::ingest(run, live, batches == 0);
            }
            let Some((format, chunk)) = live.next_chunk() else {
                break;
            };
            batches += 1;
            let rid = run.begin_request();
            let start = Instant::now();
            let posted = post_ingest(run, rid, traced, format, &chunk);
            let visible = wait_visible(run);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let ok = visible.is_ok();
            run.tally.record(visible);
            if let Some(receipt) = &posted {
                live.accept(receipt);
            }
            if let (Some(receipt), true) = (posted, ok) {
                entries += receipt.entries;
                run.samples(traced).push("ingest_visible", ms);
            }
        }
        let wall = started.elapsed().as_secs_f64();
        if !traced {
            run.gauges
                .insert("ingest_entries_per_s", entries as f64 / wall);
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread")
    });
    run.generator.absorb(reader_generator);
    run.tally.merge(reader_tally);
    run.samples(traced)
        .extend("select_during_ingest", reader_ms);
}

/// End of the live phase: `POST /compact`, then the ingest invariants:
/// the side-index is empty, nothing was refused with 429, and the entries
/// applied are the entries the receipts promised. The server drops exact
/// duplicates and pre-birth entries at application and exposes no count
/// of them, so "are" means: never more than promised, and at most 1%
/// fewer (a lost 200-row increment out of a hundred shows).
pub fn live_epilogue(run: &mut Run<'_>, live: &LiveState) {
    let reply = run.client.post("/compact", b"");
    run.judge("POST /compact", reply, 200, |run, response| {
        let doc = Json::parse(&response.body_str()).map_err(|e| e.to_string())?;
        run.versions.observe(json_u64(&doc, &["version"])?)?;
        match json_u64(&doc, &["side_rows"])? {
            0 => Ok(()),
            n => Err(format!("{n} side rows after compaction")),
        }
    });
    let outcome = run.metrics().and_then(|doc| {
        let applied = json_u64(&doc, &["ingest_applied_entries_total"])?;
        let side_rows = json_u64(&doc, &["side_index_rows"])?;
        let refused = json_u64(&doc, &["ingest_rejected_total"])?;
        let promised = live.receipt_entries;
        if applied > promised || (promised - applied) * 100 > promised {
            return Err(format!(
                "receipts promised {promised} entries, {applied} applied"
            ));
        }
        if side_rows != 0 || refused != 0 {
            return Err(format!(
                "{side_rows} side rows, {refused} batches refused with 429"
            ));
        }
        Ok(())
    });
    run.tally.record(outcome);
}
