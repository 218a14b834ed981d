//! The four workloads: operands generated from the seed, the request stream
//! each client cycles through, and the expected reply to every request.
//!
//! Expected results are computed in-process before any server starts: every
//! distinct job's product with `tilespgemm_core`, and every handle the server
//! should answer with through `Registry::insert` (handles are content
//! hashes, so a matching handle proves a bitwise-identical matrix).

use std::fmt::Write as _;
use std::sync::Arc;

use tilespgemm_core::{multiply, multiply_masked, Config};
use tsg_engine::json::Value;
use tsg_engine::{JobSpec, MatrixId, OpSpec, Registry};
use tsg_gen::rmat::{rmat, RmatParams};
use tsg_gen::suite::GenSpec;
use tsg_matrix::{Csr, TileMatrix};
use tsg_runtime::MemTracker;

/// Client threads, each on its own connection. The benchmark machine has two
/// cores, and the server runs two workers.
pub const CLIENTS: usize = 2;

/// Rounds over its units in one client stream before the stream repeats.
const ROUNDS: usize = 64;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Resident power-law operands multiplied without `keep`: the pipeline's
    /// steps 2 and 3 dominate, transport and registry sit idle.
    Powerlaw,
    /// Small structured operands squared with `keep`: transport, scheduler,
    /// materialize and encode dominate, the kernels barely matter.
    Mesh,
    /// Load, cold multiply, unload of fresh matrices under a small cache:
    /// wire decode, hashing and conversion dominate, the registry is written.
    Churn,
    /// Op expressions (power, masked multiply, chain) on resident operands.
    Expr,
}

/// Operand sizes: the measured ones, or tiny ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Powerlaw,
        Workload::Mesh,
        Workload::Churn,
        Workload::Expr,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Powerlaw => "powerlaw",
            Workload::Mesh => "mesh",
            Workload::Churn => "churn",
            Workload::Expr => "expr",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Server flags beyond the common ones.
    pub fn server_args(self) -> &'static [&'static str] {
        match self {
            // A cache smaller than the pool's tiled forms, so the LRU works.
            Workload::Churn => &["--cache-mb", "16"],
            _ => &[],
        }
    }

    /// Generates the workload's operands from `seed` and its request
    /// streams, and computes every expected reply.
    pub fn plan(self, seed: u64, scale: Scale) -> Plan {
        let tiny = scale == Scale::Tiny;
        let s = |k: u64| mix(seed, k);
        let mut p = PlanBuilder::default();
        match self {
            Workload::Powerlaw => {
                let (bits, edges) = if tiny { (9, 1_500) } else { (14, 30_000) };
                // Three graphs, every ordered pair: one graph's hub rows
                // would set the cost of the whole run.
                let graphs: Vec<usize> = (1..4)
                    .map(|k| p.resident(rmat(bits, edges, RmatParams::GRAPH500, s(k))))
                    .collect();
                let mut units = Vec::new();
                for &a in &graphs {
                    for &b in &graphs {
                        units.push(vec![Step::Job(p.job(Job::Multiply { a, b, keep: false }))]);
                    }
                }
                p.finish(vec![units; CLIENTS], seed)
            }
            Workload::Mesh => {
                let specs = if tiny {
                    [
                        fem(60, 4, 3, 8, s(1)),
                        GenSpec::Grid27 {
                            nx: 6,
                            ny: 6,
                            nz: 4,
                        },
                        power_flow(4, 20, 20, s(3)),
                        kron(6, 6, 3, s(4)),
                    ]
                } else {
                    [
                        fem(1_500, 6, 4, 40, s(1)),
                        GenSpec::Grid27 {
                            nx: 24,
                            ny: 24,
                            nz: 16,
                        },
                        power_flow(20, 60, 500, s(3)),
                        kron(40, 40, 4, s(4)),
                    ]
                };
                // The stencil's structure has no seed; its values do.
                let units: Vec<Vec<Step>> = specs
                    .into_iter()
                    .map(|spec| {
                        let m = p.resident(with_seeded_values(spec.build(), s(2)));
                        vec![Step::Job(p.job(Job::Multiply {
                            a: m,
                            b: m,
                            keep: true,
                        }))]
                    })
                    .collect();
                p.finish(vec![units; CLIENTS], seed)
            }
            Workload::Churn => {
                let pool = if tiny { 3 } else { 8 };
                let units = (0..CLIENTS as u64)
                    .map(|c| {
                        let mut units = Vec::new();
                        for i in 0..pool {
                            let seed = s(100 * (c + 1) + i);
                            let spec = match i % 3 {
                                0 if tiny => banded(400, 8, 4, seed),
                                0 => banded(20_000, 50, 5, seed),
                                1 if tiny => fem(60, 4, 3, 8, seed),
                                1 => fem(900, 6, 4, 30, seed),
                                _ if tiny => scatter(500, 3, seed),
                                _ => scatter(4_000, 4, seed),
                            };
                            let m = p.matrix(spec.build());
                            // Set-up runs the churn path once per connection.
                            if i == 0 {
                                p.setup
                                    .extend([Step::Load(m), Step::Convert(m), Step::Unload(m)]);
                            }
                            let job = p.job(Job::Multiply {
                                a: m,
                                b: m,
                                keep: false,
                            });
                            units.push(vec![Step::Load(m), Step::Job(job), Step::Unload(m)]);
                        }
                        units
                    })
                    .collect();
                p.finish(units, seed)
            }
            Workload::Expr => {
                let (power, adj, chain) = if tiny {
                    (banded(300, 4, 2, s(1)), fem(60, 4, 3, 8, s(2)), (300, 4, 2))
                } else {
                    (
                        banded(10_000, 30, 8, s(1)),
                        fem(1_000, 6, 4, 30, s(2)),
                        (25_000, 40, 10),
                    )
                };
                let pw = p.resident(power.build());
                let adj = p.resident(adj.build());
                let (n, bw, per_row) = chain;
                let links: Vec<usize> = (3..6)
                    .map(|k| p.resident(banded(n, bw, per_row, s(k)).build()))
                    .collect();
                let units = vec![
                    vec![Step::Job(p.job(Job::Power { a: pw, k: 4 }))],
                    vec![Step::Job(p.job(Job::Masked {
                        a: adj,
                        b: adj,
                        mask: adj,
                    }))],
                    vec![Step::Job(p.job(Job::Chain(links)))],
                ];
                p.finish(vec![units; CLIENTS], seed)
            }
        }
    }
}

/// What a request is, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Load,
    Convert,
    Unload,
    Multiply,
    Masked,
    Power,
    Chain,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Load => "load",
            Kind::Convert => "convert",
            Kind::Unload => "unload",
            Kind::Multiply => "multiply",
            Kind::Masked => "masked",
            Kind::Power => "power",
            Kind::Chain => "chain",
        }
    }

    /// A request that runs engine jobs.
    pub fn is_job(self) -> bool {
        !matches!(self, Kind::Load | Kind::Convert | Kind::Unload)
    }

    /// A request that runs exactly one engine job, so its reply's timing
    /// fields cover all of the server's work on it (a chain or power reply
    /// carries its last link's only).
    pub fn is_single_job(self) -> bool {
        matches!(self, Kind::Multiply | Kind::Masked)
    }
}

/// One request line with the reply it must get.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    /// The request, newline-terminated.
    pub line: Arc<str>,
    /// The engine op a job request runs, for in-process estimates.
    pub op: Option<OpSpec>,
    /// Whether the product is kept (materialized and registered).
    pub keep: bool,
    expect: Expect,
}

#[derive(Debug, Clone)]
enum Expect {
    Loaded {
        id: MatrixId,
        nnz: usize,
    },
    Converted {
        id: MatrixId,
    },
    Unloaded,
    Product {
        nnz_c: usize,
        c: Option<MatrixId>,
        links: Option<u64>,
    },
}

impl Request {
    /// Checks a reply against the expected one.
    pub fn check(&self, reply: &Value) -> Result<(), String> {
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            let code = reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap_or("malformed");
            return Err(format!("{} refused: {code}", self.kind.name()));
        }
        let u64_of = |key: &str| reply.get(key).and_then(Value::as_u64);
        let id_of = |key: &str| reply.get(key).and_then(Value::as_str);
        let ok = match &self.expect {
            Expect::Loaded { id, nnz } => {
                id_of("id") == Some(&id.to_string()) && u64_of("nnz") == Some(*nnz as u64)
            }
            Expect::Converted { id } => id_of("id") == Some(&id.to_string()),
            Expect::Unloaded => reply.get("unloaded").and_then(Value::as_bool) == Some(true),
            Expect::Product { nnz_c, c, links } => {
                u64_of("nnz_c") == Some(*nnz_c as u64)
                    && c.is_none_or(|c| id_of("c") == Some(&c.to_string()))
                    && links.is_none_or(|l| u64_of("links") == Some(l))
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} reply {reply} differs from {:?}",
                self.kind.name(),
                self.expect
            ))
        }
    }
}

/// Everything one workload sends, generated from one seed.
pub struct Plan {
    /// Sent on one connection after the server starts, before the clients.
    pub setup: Vec<Request>,
    /// Each client's request stream, cycled for the whole run.
    pub clients: Vec<Vec<Request>>,
    /// Every matrix the plan loads.
    pub matrices: Vec<Arc<Csr<f64>>>,
    /// The product of every distinct job.
    pub products: Vec<TileMatrix<f64>>,
}

/// A job over plan matrix indices.
enum Job {
    Multiply { a: usize, b: usize, keep: bool },
    Masked { a: usize, b: usize, mask: usize },
    Power { a: usize, k: u32 },
    Chain(Vec<usize>),
}

#[derive(Clone, Copy)]
enum Step {
    Load(usize),
    Convert(usize),
    Unload(usize),
    Job(usize),
}

#[derive(Default)]
struct PlanBuilder {
    matrices: Vec<Arc<Csr<f64>>>,
    setup: Vec<Step>,
    jobs: Vec<Job>,
}

impl PlanBuilder {
    fn matrix(&mut self, csr: Csr<f64>) -> usize {
        self.matrices.push(Arc::new(csr));
        self.matrices.len() - 1
    }

    /// A matrix loaded and converted during set-up, resident for the run.
    fn resident(&mut self, csr: Csr<f64>) -> usize {
        let m = self.matrix(csr);
        self.setup.extend([Step::Load(m), Step::Convert(m)]);
        m
    }

    fn job(&mut self, job: Job) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Computes every expected reply and renders each client's stream from
    /// its units (see [`shuffled_rounds`]).
    fn finish(self, units: Vec<Vec<Vec<Step>>>, seed: u64) -> Plan {
        let tiled: Vec<TileMatrix<f64>> = self
            .matrices
            .iter()
            .map(|m| TileMatrix::from_csr(m))
            .collect();
        let products = parallel_map(&self.jobs, |job| evaluate(job, &tiled));
        let mut registry = Registry::new(0);
        let ids: Vec<MatrixId> = self
            .matrices
            .iter()
            .map(|m| registry.insert(Csr::clone(m)).0)
            .collect();
        let jobs: Vec<Request> = self
            .jobs
            .iter()
            .zip(&products)
            .map(|(job, c)| {
                let keep = matches!(job, Job::Multiply { keep: true, .. });
                let kept = keep.then(|| registry.insert(c.to_csr()).0);
                job_request(job, &ids, c.nnz(), kept)
            })
            .collect();
        let render = |step: &Step| match *step {
            Step::Load(m) => load_request(&self.matrices[m], ids[m]),
            Step::Convert(m) => plain_request(
                Kind::Convert,
                format!(r#"{{"op":"convert","id":"{}"}}"#, ids[m]),
                Expect::Converted { id: ids[m] },
            ),
            Step::Unload(m) => plain_request(
                Kind::Unload,
                format!(r#"{{"op":"unload","id":"{}"}}"#, ids[m]),
                Expect::Unloaded,
            ),
            Step::Job(j) => jobs[j].clone(),
        };
        Plan {
            setup: self.setup.iter().map(render).collect(),
            clients: units
                .iter()
                .enumerate()
                .map(|(c, units)| {
                    let rendered: Vec<Vec<Request>> = units
                        .iter()
                        .map(|unit| unit.iter().map(render).collect())
                        .collect();
                    shuffled_rounds(units.len(), mix(seed, 1000 + c as u64))
                        .into_iter()
                        .flat_map(|u| rendered[u].iter().cloned())
                        .collect()
                })
                .collect(),
            matrices: self.matrices,
            products,
        }
    }
}

/// The order a client runs its `units` in: [`ROUNDS`] rounds, each in its
/// own seeded order. With a fixed order the two closed loops can lock into
/// one pairing of concurrent requests for many seconds, and which pairing
/// they lock into would vary from run to run.
fn shuffled_rounds(units: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..units).collect();
    let mut draws = 0u64;
    let mut stream = Vec::with_capacity(ROUNDS * units);
    for _ in 0..ROUNDS {
        for i in (1..units).rev() {
            draws += 1;
            order.swap(i, (mix(seed, draws) % (i as u64 + 1)) as usize);
        }
        stream.extend_from_slice(&order);
    }
    stream
}

fn evaluate(job: &Job, tiled: &[TileMatrix<f64>]) -> TileMatrix<f64> {
    let config = Config::default();
    let mul = |a: &TileMatrix<f64>, b: &TileMatrix<f64>| {
        multiply(a, b, &config, &MemTracker::new())
            .expect("an untracked multiply of compatible operands succeeds")
            .c
    };
    match job {
        Job::Multiply { a, b, .. } => mul(&tiled[*a], &tiled[*b]),
        Job::Masked { a, b, mask } => {
            multiply_masked(
                &tiled[*a],
                &tiled[*b],
                &tiled[*mask],
                &config,
                &MemTracker::new(),
            )
            .expect("an untracked masked multiply of compatible operands succeeds")
            .c
        }
        Job::Power { a, k } => {
            (2..*k).fold(mul(&tiled[*a], &tiled[*a]), |c, _| mul(&c, &tiled[*a]))
        }
        Job::Chain(ms) => ms[2..]
            .iter()
            .fold(mul(&tiled[ms[0]], &tiled[ms[1]]), |c, m| {
                mul(&c, &tiled[*m])
            }),
    }
}

fn job_request(job: &Job, ids: &[MatrixId], nnz_c: usize, kept: Option<MatrixId>) -> Request {
    let (kind, line, spec, links) = match job {
        Job::Multiply { a, b, keep } => (
            Kind::Multiply,
            format!(
                r#"{{"op":"multiply","a":"{}","b":"{}"{}}}"#,
                ids[*a],
                ids[*b],
                if *keep { r#","keep":true"# } else { "" }
            ),
            JobSpec::multiply(ids[*a], ids[*b]),
            None,
        ),
        Job::Masked { a, b, mask } => (
            Kind::Masked,
            format!(
                r#"{{"op":"multiply","a":"{}","b":"{}","mask":"{}"}}"#,
                ids[*a], ids[*b], ids[*mask]
            ),
            JobSpec::multiply(ids[*a], ids[*b]).mask(ids[*mask]),
            None,
        ),
        Job::Power { a, k } => (
            Kind::Power,
            format!(r#"{{"op":"power","a":"{}","k":{k}}}"#, ids[*a]),
            JobSpec::power(ids[*a], *k),
            Some(u64::from(*k) - 1),
        ),
        Job::Chain(ms) => {
            let chain: Vec<MatrixId> = ms.iter().map(|m| ids[*m]).collect();
            let quoted: Vec<String> = chain.iter().map(|id| format!("\"{id}\"")).collect();
            (
                Kind::Chain,
                format!(r#"{{"op":"chain","ids":[{}]}}"#, quoted.join(",")),
                JobSpec::chain(chain.clone()),
                Some(chain.len() as u64 - 1),
            )
        }
    };
    Request {
        kind,
        line: format!("{line}\n").into(),
        op: Some(spec.op),
        keep: kept.is_some(),
        expect: Expect::Product {
            nnz_c,
            c: kept,
            links,
        },
    }
}

fn plain_request(kind: Kind, line: String, expect: Expect) -> Request {
    Request {
        kind,
        line: format!("{line}\n").into(),
        op: None,
        keep: false,
        expect,
    }
}

/// A `load` triplet frame. `f64`'s `Display` prints the shortest string
/// that parses back to the same value, so the server rebuilds the matrix
/// bit for bit.
fn load_request(m: &Csr<f64>, id: MatrixId) -> Request {
    let mut line = String::with_capacity(m.nnz() * 28 + 64);
    write!(
        line,
        r#"{{"op":"load","rows":{},"cols":{},"triplets":["#,
        m.nrows, m.ncols
    )
    .expect("writing to a String cannot fail");
    for row in 0..m.nrows {
        let (cols, vals) = m.row(row);
        for (c, v) in cols.iter().zip(vals) {
            if !line.ends_with('[') {
                line.push(',');
            }
            write!(line, "[{row},{c},{v}]").expect("writing to a String cannot fail");
        }
    }
    line.push_str("]}\n");
    Request {
        kind: Kind::Load,
        line: line.into(),
        op: None,
        keep: false,
        expect: Expect::Loaded { id, nnz: m.nnz() },
    }
}

/// Maps `f` over `items` on [`CLIENTS`] threads, keeping order.
fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    (t..items.len())
                        .step_by(CLIENTS)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("an in-process evaluation thread panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item evaluated"))
        .collect()
}

/// A per-operand seed derived from the run's seed (splitmix64 finalizer).
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x6a09_e667_f3bc_c909);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replaces every stored value with a seeded nonzero one, keeping the
/// structure — so generators without a seed still give each seed its own
/// matrix (and content handle).
fn with_seeded_values(mut m: Csr<f64>, seed: u64) -> Csr<f64> {
    let mut rng = tsg_gen::rng(seed);
    for v in &mut m.vals {
        *v = tsg_gen::random::nonzero_value(&mut rng);
    }
    m
}

fn fem(nodes: usize, block: usize, couplings: usize, spread: usize, seed: u64) -> GenSpec {
    GenSpec::Fem {
        nodes,
        block,
        couplings,
        spread,
        seed,
    }
}

fn banded(n: usize, bandwidth: usize, per_row: usize, seed: u64) -> GenSpec {
    GenSpec::Banded {
        n,
        bandwidth,
        per_row,
        seed,
    }
}

fn scatter(n: usize, per_row: usize, seed: u64) -> GenSpec {
    GenSpec::Scatter { n, per_row, seed }
}

fn power_flow(clusters: usize, cluster_size: usize, links: usize, seed: u64) -> GenSpec {
    GenSpec::PowerFlow {
        clusters,
        cluster_size,
        links,
        seed,
    }
}

fn kron(nx: usize, ny: usize, block: usize, seed: u64) -> GenSpec {
    GenSpec::KronGridBlock {
        nx,
        ny,
        block,
        seed,
    }
}
