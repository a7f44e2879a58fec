//! The four workloads: their seed-derived inputs, the set-up every run
//! pays before its first timed sample, the closed-loop sample cycle, and
//! the answer checks.

use crate::binary::{self, Process, Server};
use crate::host;
use crate::report;
use sigrule::engine::{Engine, Loader};
use sigrule::{CorrectionApproach, ErrorMetric, Query, RuleMiningConfig};
use sigrule_data::loader::{dataset_to_baskets, dataset_to_csv};
use sigrule_server::json::Json;
use sigrule_synth::{BasketGenerator, BasketParams, SyntheticGenerator, SyntheticParams};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads every workload runs with: two, the cores of the host the
/// ledger was sized on, and never more than this host has.  Pinned
/// explicitly, so a change of default never changes the work measured.
pub fn threads() -> usize {
    host::nproc().min(2)
}

/// Seed of the D2kA20R5 and basket generators.  Pinned: across generator
/// seeds the D2kA20R5 rule count, and with it the cost of one cold run,
/// varies about fivefold, which would swamp any change being measured.  The
/// workload seed instead shuffles the generated records (which leaves the
/// mined rules unchanged) and picks the permutation and holdout seeds and
/// the request schedule.
const GENERATOR_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    D2kCold,
    BasketCold,
    ServeMixed,
    D2kShard,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::D2kCold,
        Workload::BasketCold,
        Workload::ServeMixed,
        Workload::D2kShard,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::D2kCold => "d2k-cold",
            Workload::BasketCold => "basket-cold",
            Workload::ServeMixed => "serve-mixed",
            Workload::D2kShard => "d2k-shard",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when a cold sample is one `sigrule correct` process.
    pub fn cold_is_process(self) -> bool {
        self != Workload::ServeMixed
    }

    /// Warm requests on the main dataset and on retail per sample cycle.
    /// `serve-mixed` sends more per cold sample: its cold samples are short,
    /// and each one costs the answer check a reference null.  A cycle's
    /// retail requests take about 0.1 s in all: with fewer, one stall of
    /// the host of a few milliseconds owns the cycle's p90.
    pub fn warm_per_cycle(self) -> (usize, usize) {
        match self {
            Workload::ServeMixed => (300, 1500),
            _ => (100, 1000),
        }
    }
}

/// One dataset a workload queries, with the mining and null parameters
/// every request on it uses.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Registry name on the server.
    pub name: &'static str,
    pub path: PathBuf,
    pub min_sup: usize,
    pub permutations: usize,
}

impl Dataset {
    pub fn mining(&self) -> RuleMiningConfig {
        RuleMiningConfig::new(self.min_sup)
            .with_min_conf(0.0)
            .with_closed_only(true)
    }

    fn load_line(&self) -> String {
        format!(
            r#"{{"cmd":"load","path":"{}","name":"{}"}}"#,
            self.path.display(),
            self.name
        )
    }
}

/// D2kA20R5 (the paper's Table 1 dataset, 2,000 rows × 20 attributes)
/// with `permutations` permutations per null.
fn d2k(work: &Path, permutations: usize) -> Dataset {
    Dataset {
        name: "d2k",
        path: work.join("d2k.csv"),
        min_sup: 200,
        permutations,
    }
}

/// Transactions in the generated basket dataset.
const BASKET_TRANSACTIONS: usize = 10_000;

/// A generated market-basket file: a 200-item catalogue, 10–20 items per
/// basket, zipf 0.75, five planted class-correlated itemsets.
fn basket(work: &Path) -> Dataset {
    Dataset {
        name: "basket",
        path: work.join("market.basket"),
        min_sup: 150,
        permutations: 1000,
    }
}

/// The checked-in retail fixture (200 transactions, 25 items).
fn retail() -> Dataset {
    Dataset {
        name: "retail",
        path: PathBuf::from("tests/fixtures/retail_toy.basket"),
        min_sup: 8,
        permutations: 200,
    }
}

/// Everything a run needs to know about where it is.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub bin: PathBuf,
    /// Scratch directory for generated inputs, logs and spans.
    pub work: PathBuf,
}

impl Ctx {
    pub fn log(&self) -> PathBuf {
        self.work.join("sigrule.log")
    }

    /// The workload's main dataset.
    pub fn primary(&self) -> Dataset {
        match self.workload {
            Workload::BasketCold => basket(&self.work),
            Workload::ServeMixed => d2k(&self.work, 200),
            Workload::D2kCold | Workload::D2kShard => d2k(&self.work, 1000),
        }
    }

    /// Permutation / holdout seed of the primed null, every warm request
    /// and every cold process sample.
    pub fn query_seed(&self) -> u64 {
        let mut state = self.seed;
        splitmix(&mut state) % 1_000_000_000
    }

    /// Generates and writes the workload's input file.
    pub fn write_inputs(&self) -> Result<(), String> {
        let primary = self.primary();
        let (text, header_lines) = match self.workload {
            Workload::BasketCold => {
                let n = BASKET_TRANSACTIONS;
                let params = BasketParams::default()
                    .with_transactions(n)
                    .with_items(200)
                    .with_basket_size(10, 20)
                    .with_zipf(0.75)
                    .with_rules(5)
                    .with_coverage(n / 20, n / 15);
                let (dataset, _) = BasketGenerator::new(params)?.generate(GENERATOR_SEED);
                (dataset_to_baskets(&dataset), 0)
            }
            _ => {
                let (dataset, _) = SyntheticGenerator::new(SyntheticParams::d2k_a20_r5())?
                    .generate(GENERATOR_SEED);
                (dataset_to_csv(&dataset), 1)
            }
        };
        let mut state = self.seed ^ 0x5EED_F11E;
        std::fs::write(&primary.path, shuffle_rows(&text, header_lines, &mut state))
            .map_err(|e| format!("writing {}: {e}", primary.path.display()))
    }

    /// Arguments of one cold `sigrule correct` process.
    fn cli_args(&self, workers: Option<&str>) -> Vec<String> {
        let primary = self.primary();
        // With a worker, one local thread plus the worker's one: two in all.
        let local_threads = if workers.is_some() { 1 } else { threads() };
        let mut args: Vec<String> = [
            "correct",
            "--input",
            &primary.path.display().to_string(),
            "--min-sup",
            &primary.min_sup.to_string(),
            "--permutations",
            &primary.permutations.to_string(),
            "--seed",
            &self.query_seed().to_string(),
            "--threads",
            &local_threads.to_string(),
            "--format",
            "json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(workers) = workers {
            args.extend(["--workers".to_string(), format!("tcp:{workers}")]);
        }
        args
    }
}

/// SplitMix64: the benchmark's only random source.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `text` with the lines after its first `header_lines` in a Fisher–Yates
/// order drawn from `state`; every line ends with a newline.
fn shuffle_rows(text: &str, header_lines: usize, state: &mut u64) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let header_lines = header_lines.min(lines.len());
    let rows = &mut lines[header_lines..];
    for i in (1..rows.len()).rev() {
        rows.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
    lines.iter().map(|line| format!("{line}\n")).collect()
}

/// A warm request's decision: correction approach and α.  The mined rule
/// set and permutation null are always the primed ones, so every warm
/// request hits both caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    pub approach: CorrectionApproach,
    pub metric: ErrorMetric,
    pub alpha: f64,
}

impl Decision {
    /// The cold served request's decision.
    pub const COLD: Decision = Decision {
        approach: CorrectionApproach::Permutation,
        metric: ErrorMetric::Fwer,
        alpha: 0.05,
    };

    fn wire(&self) -> (&'static str, &'static str) {
        let metric = match self.metric {
            ErrorMetric::Fwer => "fwer",
            ErrorMetric::Fdr => "fdr",
        };
        let correction = match self.approach {
            CorrectionApproach::Permutation => "permutation",
            CorrectionApproach::Direct => "direct",
            CorrectionApproach::Holdout => "holdout",
            CorrectionApproach::None => "none",
        };
        (correction, metric)
    }

    /// The `correct` request line for `dataset` at permutation seed `seed`.
    pub fn request(&self, dataset: &Dataset, seed: u64, threads: Option<usize>) -> String {
        let (correction, metric) = self.wire();
        let threads = threads.map_or(String::new(), |t| format!(r#","threads":{t}"#));
        format!(
            r#"{{"cmd":"correct","dataset":"{}","min_sup":{},"correction":"{correction}","metric":"{metric}","alpha":{},"permutations":{},"seed":{seed}{threads}}}"#,
            dataset.name, dataset.min_sup, self.alpha, dataset.permutations
        )
    }

    /// The same question as an in-process engine query.
    pub fn query(&self, dataset: &Dataset, seed: u64) -> Query {
        Query::new(dataset.mining())
            .with_correction(self.approach, self.metric)
            .with_alpha(self.alpha)
            .with_permutations(dataset.permutations)
            .with_seed(seed)
            .with_threads(threads())
    }
}

/// The warm request mix: permutation FWER/FDR, Bonferroni and BH, each at
/// three levels of α, drawn in a seed-derived order.
pub struct Schedule {
    state: u64,
}

impl Schedule {
    pub fn new(seed: u64, stream: u64) -> Schedule {
        Schedule {
            state: seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
        }
    }

    pub fn next_decision(&mut self) -> Decision {
        const KINDS: [(CorrectionApproach, ErrorMetric); 4] = [
            (CorrectionApproach::Permutation, ErrorMetric::Fwer),
            (CorrectionApproach::Permutation, ErrorMetric::Fdr),
            (CorrectionApproach::Direct, ErrorMetric::Fwer),
            (CorrectionApproach::Direct, ErrorMetric::Fdr),
        ];
        const ALPHAS: [f64; 3] = [0.01, 0.05, 0.1];
        let r = splitmix(&mut self.state);
        let (approach, metric) = KINDS[(r % 4) as usize];
        Decision {
            approach,
            metric,
            alpha: ALPHAS[((r >> 8) % 3) as usize],
        }
    }
}

/// The processes a run keeps resident: one server holding the workload's
/// dataset and the retail fixture, loaded and primed.  On `d2k-shard` the
/// same server is the cold samples' remote permutation worker.
pub struct Rig {
    pub server: Server,
    pub primary: Dataset,
    pub retail: Dataset,
    /// The untimed warm-up sample of the workload's cold kind.
    pub warmup: ColdSample,
}

/// One cold sample.
#[derive(Debug, Clone)]
pub struct ColdSample {
    pub wall_ms: f64,
    /// The process exited 0 / the server answered `"ok":true`.
    pub ok: bool,
    /// The process's JSON report, or the served response line.
    pub output: String,
    /// Permutation seed of the null it computed.
    pub seed: u64,
    /// CPU seconds of every `sigrule` process while the sample ran.
    pub cpu_s: f64,
    /// Peak resident set of the sample's own process (process samples).
    pub peak_rss_mb: Option<f64>,
}

/// Spawns, loads and primes the resident server, then runs the untimed
/// warm-up sample.  This is everything `setup_s` times.
pub fn set_up(ctx: &Ctx) -> Result<Rig, String> {
    ctx.write_inputs()?;
    let mut server = Server::spawn(&ctx.bin, &ctx.log())?;
    let (primary, retail) = (ctx.primary(), retail());
    let seed = ctx.query_seed();
    for dataset in [&primary, &retail] {
        server.request_ok(&dataset.load_line())?;
        // One cold mine and one cold null per dataset: the first null after
        // a load runs markedly slower than later ones.
        server.request_ok(&Decision::COLD.request(dataset, seed, Some(threads())))?;
    }
    let warmup = cold_sample(ctx, &mut server, 0)?;
    if !warmup.ok {
        return Err(format!("the warm-up sample failed: {}", warmup.output));
    }
    Ok(Rig {
        server,
        primary,
        retail,
        warmup,
    })
}

/// Runs cold sample number `index` (0 is the warm-up).  Served cold samples
/// use a fresh permutation seed each, so each one misses the null cache.
pub fn cold_sample(ctx: &Ctx, server: &mut Server, index: u64) -> Result<ColdSample, String> {
    let server_pid = server.pid();
    let server_cpu = host::process_cpu_s(server_pid)?;
    let mut sample = match ctx.workload {
        Workload::ServeMixed => {
            let seed = ctx.query_seed() + 1 + index;
            let line = Decision::COLD.request(&ctx.primary(), seed, Some(threads()));
            let start = Instant::now();
            let response = server.request(&line)?;
            let wall_ms = host::ms(start.elapsed());
            ColdSample {
                wall_ms,
                ok: response.contains(r#""ok":true"#),
                output: response,
                seed,
                cpu_s: 0.0,
                peak_rss_mb: None,
            }
        }
        _ => {
            let workers = (ctx.workload == Workload::D2kShard).then(|| server.addr().to_string());
            let process = binary::run(&ctx.bin, &ctx.cli_args(workers.as_deref()), &ctx.log())?;
            process_sample(process, ctx.query_seed())
        }
    };
    sample.cpu_s += host::process_cpu_s(server_pid)? - server_cpu;
    Ok(sample)
}

fn process_sample(process: Process, seed: u64) -> ColdSample {
    ColdSample {
        wall_ms: process.wall_ms,
        ok: process.succeeded(),
        cpu_s: process.exit.cpu_s,
        peak_rss_mb: Some(process.exit.peak_rss_mb),
        output: process.stdout,
        seed,
    }
}

/// One timed warm request and its raw response.
#[derive(Debug, Clone)]
pub struct Warm {
    pub decision: Decision,
    pub ms: f64,
    pub response: String,
}

/// What the timed cycles recorded.
#[derive(Debug, Default)]
pub struct Ledger {
    pub cold: Vec<ColdSample>,
    pub warm: Vec<Warm>,
    pub small: Vec<Warm>,
}

/// Runs sample cycles until `budget` has passed: each cycle is one cold
/// sample, then a fixed number of warm requests on the main dataset, then
/// on retail, over one closed-loop connection.  The responses are only
/// stored here; they are checked after the clock stops.
pub fn measure(ctx: &Ctx, rig: &mut Rig, budget: Duration) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    let mut warm_schedule = Schedule::new(ctx.seed, 1);
    let mut small_schedule = Schedule::new(ctx.seed, 2);
    let (warm_count, small_count) = ctx.workload.warm_per_cycle();
    let seed = ctx.query_seed();
    let start = Instant::now();
    let mut cycle = 1u64;
    while ledger.cold.is_empty() || start.elapsed() < budget {
        ledger.cold.push(cold_sample(ctx, &mut rig.server, cycle)?);
        let server = &mut rig.server;
        send_warm(
            server,
            &rig.primary,
            &mut warm_schedule,
            warm_count,
            seed,
            &mut ledger.warm,
        )?;
        send_warm(
            server,
            &rig.retail,
            &mut small_schedule,
            small_count,
            seed,
            &mut ledger.small,
        )?;
        cycle += 1;
    }
    Ok(ledger)
}

/// Sends `count` warm requests on `dataset`, drawn from `schedule`, one at a
/// time, and records each round trip.
pub fn send_warm(
    server: &mut Server,
    dataset: &Dataset,
    schedule: &mut Schedule,
    count: usize,
    seed: u64,
    out: &mut Vec<Warm>,
) -> Result<(), String> {
    for _ in 0..count {
        let decision = schedule.next_decision();
        let line = decision.request(dataset, seed, None);
        let sent = Instant::now();
        let response = server.request(&line)?;
        out.push(Warm {
            decision,
            ms: host::ms(sent.elapsed()),
            response,
        });
    }
    Ok(())
}

/// `(significant count, p-value cut-off bits)`: what a served answer must
/// share with the in-process engine.
pub type Answer = (u64, Option<u64>);

/// Reads the compared fields of a served `correct` response.
pub fn served_answer(response: &str) -> Option<Answer> {
    let json = Json::parse(response).ok()?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    let significant = json.get("significant").and_then(Json::as_u64)?;
    let cutoff = match json.get("p_value_cutoff")? {
        Json::Null => None,
        value => Some(value.as_f64()?.to_bits()),
    };
    Some((significant, cutoff))
}

/// In-process reference answers, computed once per distinct question.
pub struct Reference {
    engine: Engine,
    dataset: Dataset,
    answers: Vec<(Decision, u64, Answer)>,
}

impl Reference {
    pub fn new(dataset: &Dataset) -> Result<Reference, String> {
        let engine = Loader::default()
            .load_file(&dataset.path)
            .map_err(|e| format!("loading {}: {e}", dataset.path.display()))?
            .into_engine();
        Ok(Reference {
            engine,
            dataset: dataset.clone(),
            answers: Vec::new(),
        })
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn answer(&mut self, decision: Decision, seed: u64) -> Result<Answer, String> {
        if let Some((_, _, answer)) = self
            .answers
            .iter()
            .find(|(d, s, _)| *d == decision && *s == seed)
        {
            return Ok(*answer);
        }
        let outcome = self
            .engine
            .query(&decision.query(&self.dataset, seed))
            .map_err(|e| format!("reference query failed: {e}"))?;
        let answer = (
            outcome.result.n_significant() as u64,
            outcome.result.p_value_cutoff.map(f64::to_bits),
        );
        self.answers.push((decision, seed, answer));
        Ok(answer)
    }

    /// The rows `sigrule correct` prints, computed in process: the method
    /// roster at α = 0.05 with the CLI's cell formatting.
    pub fn roster(&self, seed: u64) -> Result<Vec<report::MethodRow>, String> {
        const ROSTER: [(CorrectionApproach, ErrorMetric); 7] = [
            (CorrectionApproach::None, ErrorMetric::Fwer),
            (CorrectionApproach::Direct, ErrorMetric::Fwer),
            (CorrectionApproach::Direct, ErrorMetric::Fdr),
            (CorrectionApproach::Permutation, ErrorMetric::Fwer),
            (CorrectionApproach::Permutation, ErrorMetric::Fdr),
            (CorrectionApproach::Holdout, ErrorMetric::Fwer),
            (CorrectionApproach::Holdout, ErrorMetric::Fdr),
        ];
        ROSTER
            .iter()
            .map(|&(approach, metric)| {
                let decision = Decision {
                    approach,
                    metric,
                    alpha: 0.05,
                };
                let outcome = self
                    .engine
                    .query(&decision.query(&self.dataset, seed))
                    .map_err(|e| format!("reference query failed: {e}"))?;
                let result = outcome.result;
                Ok(report::MethodRow {
                    method: result.method.clone(),
                    n_tests: result.n_tests.to_string(),
                    significant: result.n_significant().to_string(),
                    p_value_cutoff: result
                        .p_value_cutoff
                        .map_or_else(|| "-".to_string(), |c| format!("{c:.6e}")),
                })
            })
            .collect()
    }
}

/// Outcome of the answer checks.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// One line per kind of failure, for stderr.
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, n: usize, problem: String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(problem);
        }
    }
}

/// Checks every recorded answer after the clock stopped:
/// - each cold process report equals the warm-up's with timings removed,
///   and the warm-up's rows equal the in-process engine's;
/// - on `d2k-shard`, the warm-up report equals an unsharded run's;
/// - each served answer's significant count and cut-off bits equal the
///   in-process engine's for the same question.
pub fn check(ctx: &Ctx, rig: &Rig, ledger: &Ledger) -> Result<Verdict, String> {
    let mut verdict = Verdict {
        attempted: ledger.cold.len() + ledger.warm.len() + ledger.small.len(),
        ..Verdict::default()
    };
    let mut primary = Reference::new(&rig.primary)?;
    let mut retail = Reference::new(&rig.retail)?;
    let seed = ctx.query_seed();

    let not_ok = ledger.cold.iter().filter(|s| !s.ok).count();
    verdict.fail(not_ok, format!("{not_ok} cold samples failed"));
    if ctx.workload.cold_is_process() {
        let expected = report::normalize(&rig.warmup.output)?;
        let differing = ledger
            .cold
            .iter()
            .filter(|s| s.ok && report::normalize(&s.output).ok().as_ref() != Some(&expected))
            .count();
        verdict.fail(
            differing,
            format!("{differing} cold reports differ from the warm-up's"),
        );
        let mut warmup_wrong = report::method_rows(&rig.warmup.output)? != primary.roster(seed)?;
        if ctx.workload == Workload::D2kShard {
            let plain = binary::run(&ctx.bin, &ctx.cli_args(None), &ctx.log())?;
            warmup_wrong |= !plain.succeeded() || report::normalize(&plain.stdout)? != expected;
        }
        if warmup_wrong {
            verdict.fail(
                ledger.cold.len() - not_ok - differing,
                "the warm-up report disagrees with the reference".into(),
            );
        }
    } else {
        let mut wrong = 0;
        for sample in ledger.cold.iter().filter(|s| s.ok) {
            if served_answer(&sample.output) != Some(primary.answer(Decision::COLD, sample.seed)?) {
                wrong += 1;
            }
        }
        verdict.fail(wrong, format!("{wrong} cold served answers are wrong"));
    }
    for (name, warm, reference) in [
        ("warm", &ledger.warm, &mut primary),
        ("small", &ledger.small, &mut retail),
    ] {
        let mut wrong = 0;
        for request in warm {
            if served_answer(&request.response) != Some(reference.answer(request.decision, seed)?) {
                wrong += 1;
            }
        }
        verdict.fail(wrong, format!("{wrong} {name} answers are wrong"));
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_rows_keeps_the_header_and_every_row() {
        let text = "h\na\nb\nc\nd\ne\n";
        let shuffled = shuffle_rows(text, 1, &mut 3);
        assert!(shuffled.starts_with("h\n"));
        assert_ne!(shuffled, text);
        let mut rows: Vec<&str> = shuffled.lines().skip(1).collect();
        rows.sort_unstable();
        assert_eq!(rows, ["a", "b", "c", "d", "e"]);
        // The same seed gives the same order.
        assert_eq!(shuffle_rows(text, 1, &mut 3), shuffled);
        assert_eq!(shuffle_rows("", 1, &mut 3), "");
    }
}
