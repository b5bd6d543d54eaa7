//! The workloads: kernel sources, seeded inputs, the one-off set-up,
//! the validated run that `run_s` times, and the correctness oracle.

use hpf_compile::netrun::{self, NetJob, NetRunConfig};
use hpf_compile::{compile_source, Compiled, Options};
use hpf_ir::interp::{Interp, InterpStats, Memory, Value};
use hpf_ir::{Program, VarId};
use hpf_kernels::{dgefa, tomcatv};
use hpf_spmd::{Replayed, SpmdProgram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Processor count of every workload: twice this machine class's two
/// cores, so the program's own ranks contend moderately. At P=16 the
/// socket backend spends most of its time in 17 contending processes.
pub const NPROCS: usize = 4;

/// The seed whose inputs are the kernels' own unperturbed data, so the
/// plain-Rust references in `hpf_kernels` apply to it.
pub const DEFAULT_SEED: u64 = 0;

const TOMCATV_N: i64 = 128;
const TOMCATV_NITER: i64 = 2;
const DGEFA_N: i64 = 128;

/// Relative tolerance of every floating-point comparison, the same as
/// `hpf_spmd::validate_against_sequential` uses.
const REL_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Tomcatv,
    Dgefa,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Thread,
    Socket,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kernel: Kernel,
    pub backend: Backend,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tomcatv-thread",
        kernel: Kernel::Tomcatv,
        backend: Backend::Thread,
    },
    Workload {
        name: "dgefa-socket",
        kernel: Kernel::Dgefa,
        backend: Backend::Socket,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Named REAL array contents.
pub type Fills = Vec<(String, Vec<f64>)>;

impl Kernel {
    pub fn source(self) -> String {
        match self {
            Kernel::Tomcatv => tomcatv::source(TOMCATV_N, NPROCS, TOMCATV_NITER),
            Kernel::Dgefa => dgefa::source(DGEFA_N, NPROCS),
        }
    }

    /// The kernel's input arrays for `seed`. TOMCATV's mesh gets a small
    /// seeded perturbation (none at [`DEFAULT_SEED`]).
    /// DGEFA's matrix is drawn from the seed with its rows shuffled by the
    /// seed: `random_matrix` alone is diagonally dominant, so its pivots
    /// never leave the diagonal and every seed would execute the same
    /// statements.
    pub fn inputs(self, seed: u64) -> Fills {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Kernel::Tomcatv => {
                let (mut x, mut y) = tomcatv::init_mesh(TOMCATV_N);
                if seed != DEFAULT_SEED {
                    perturb(&mut x, &mut rng, 1e-3);
                    perturb(&mut y, &mut rng, 1e-3);
                }
                vec![("x".into(), x), ("y".into(), y)]
            }
            Kernel::Dgefa => {
                let a = dgefa::random_matrix(DGEFA_N, seed);
                vec![("a".into(), shuffle_rows(&a, DGEFA_N as usize, &mut rng))]
            }
        }
    }

    /// The plain-Rust reference result for the inputs of [`DEFAULT_SEED`].
    pub fn reference(self) -> Fills {
        match self {
            Kernel::Tomcatv => {
                let (x, y) = tomcatv::reference(TOMCATV_N, TOMCATV_NITER);
                vec![("x".into(), x), ("y".into(), y)]
            }
            Kernel::Dgefa => {
                let (_, a) = self.inputs(DEFAULT_SEED).remove(0);
                vec![("a".into(), dgefa::reference_on(a, DGEFA_N))]
            }
        }
    }
}

/// The column-major `n`×`n` matrix with its rows in a random order.
fn shuffle_rows(a: &[f64], n: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    let mut out = vec![0.0; n * n];
    for j in 0..n {
        for i in 0..n {
            out[j * n + perm[i]] = a[j * n + i];
        }
    }
    out
}

fn perturb(data: &mut [f64], rng: &mut StdRng, amplitude: f64) {
    for v in data.iter_mut() {
        *v += amplitude * rng.random_range(-1.0..1.0);
    }
}

/// Input arrays resolved to the compiled program's variables.
pub struct Inputs(Vec<(VarId, Vec<f64>)>);

impl Inputs {
    pub fn resolve(sp: &SpmdProgram, fills: &Fills) -> Result<Inputs, String> {
        fills
            .iter()
            .map(|(name, data)| {
                let v = sp
                    .program
                    .vars
                    .lookup(name)
                    .ok_or_else(|| format!("kernel has no array {}", name))?;
                Ok((v, data.clone()))
            })
            .collect::<Result<_, String>>()
            .map(Inputs)
    }

    pub fn apply(&self, m: &mut Memory) {
        for (v, data) in &self.0 {
            m.fill_real(*v, data);
        }
    }
}

/// Everything `setup_s` times: source generation, compilation, seeded
/// input construction and, for the socket backend, resolution of the
/// `networker` binary (which would otherwise be built inside the first
/// timed run).
pub struct Setup {
    pub compiled: Compiled,
    pub source: String,
    pub inputs: Inputs,
    /// The socket backend's job; `None` on the thread backend.
    pub job: Option<NetJob>,
}

pub fn setup(w: &Workload, seed: u64) -> Result<Setup, String> {
    let source = w.kernel.source();
    let compiled = compile_source(&source, Options::default())?;
    let fills = w.kernel.inputs(seed);
    let inputs = Inputs::resolve(&compiled.spmd, &fills)?;
    let job = match w.backend {
        Backend::Thread => None,
        Backend::Socket => {
            netrun::worker_bin()?;
            let mut job = NetJob::new(source.clone());
            job.fills = fills;
            Some(job)
        }
    };
    Ok(Setup {
        compiled,
        source,
        inputs,
        job,
    })
}

impl Setup {
    pub fn sp(&self) -> &SpmdProgram {
        &self.compiled.spmd
    }

    pub fn init(&self) -> impl Fn(&mut Memory) + Sync + '_ {
        move |m: &mut Memory| self.inputs.apply(m)
    }

    /// One validated run on the workload's backend: reference executor,
    /// replay, and the owner-slot check against the reference. The socket
    /// backend also recompiles inside the call, as `phpfc --backend socket`
    /// does.
    pub fn validated_run(&self, cfg: &NetRunConfig) -> Result<Replayed, String> {
        match &self.job {
            None => hpf_spmd::validate_replay(self.sp(), self.init()),
            Some(job) => netrun::socket_validate_replay(job, cfg),
        }
    }

    /// The sequential interpreter on this set-up's inputs.
    pub fn interpret(&self) -> Result<(Memory, InterpStats), String> {
        interpret(&self.sp().program, &self.inputs)
    }
}

fn interpret(program: &Program, inputs: &Inputs) -> Result<(Memory, InterpStats), String> {
    let mut mem = Memory::zeroed(program);
    inputs.apply(&mut mem);
    let stats = Interp::new(program)
        .run(&mut mem)
        .map_err(|e| format!("sequential interpreter failed: {}", e))?;
    Ok((mem, stats))
}

fn close(got: Value, want: Value) -> bool {
    match (got, want) {
        (Value::Real(g), Value::Real(w)) => (g - w).abs() <= REL_TOL * (1.0 + w.abs()),
        _ => got == want,
    }
}

/// Check the sequential interpreter at [`DEFAULT_SEED`] against the
/// plain-Rust reference of the kernel: this guards the oracle itself.
pub fn check_reference(kernel: Kernel, sp: &SpmdProgram) -> Result<(), String> {
    let inputs = Inputs::resolve(sp, &kernel.inputs(DEFAULT_SEED))?;
    let (mem, _) = interpret(&sp.program, &inputs)?;
    for (name, want) in kernel.reference() {
        let v = sp
            .program
            .vars
            .lookup(&name)
            .ok_or("reference names an unknown array")?;
        let got = mem.real_slice(v);
        if let Some(i) =
            (0..want.len()).find(|&i| !close(Value::Real(got[i]), Value::Real(want[i])))
        {
            return Err(format!(
                "interpreter differs from the plain-Rust reference: {}[{}] = {} vs {}",
                name, i, got[i], want[i]
            ));
        }
    }
    Ok(())
}

/// Compares the final owner slots of a run with the sequential
/// interpreter on the same input. Arrays with privatized dimensions are
/// skipped, as in `hpf_spmd::validate_against_sequential`: their contents
/// after the loop are unspecified. Owner sets are resolved once here, so
/// the per-run check is a plain comparison.
pub struct Oracle {
    seq: Memory,
    /// Per checked array: its name and, per rank, the offsets it owns.
    owned: Vec<(VarId, String, Vec<Vec<usize>>)>,
}

impl Oracle {
    pub fn new(sp: &SpmdProgram, seq: Memory) -> Oracle {
        let grid = &sp.maps.grid;
        let mut owned = Vec::new();
        for (v, info) in sp.program.vars.arrays() {
            let mapping = sp.maps.of(v);
            if !mapping.private_dims().is_empty() {
                continue;
            }
            let shape = info.shape().expect("array variable has a shape");
            let mut per_rank = vec![Vec::new(); grid.total()];
            for off in 0..shape.len() as usize {
                for pid in mapping.owner_on(grid, &shape.delinearize(off)).pids(grid) {
                    per_rank[pid].push(off);
                }
            }
            owned.push((v, info.name.clone(), per_rank));
        }
        Oracle { seq, owned }
    }

    pub fn check(&self, mems: &[Memory]) -> Result<(), String> {
        for (v, name, per_rank) in &self.owned {
            let want = self.seq.array(*v);
            for (pid, offs) in per_rank.iter().enumerate() {
                let got = mems
                    .get(pid)
                    .ok_or_else(|| format!("run returned no memory for rank {}", pid))?
                    .array(*v);
                if let Some(&off) = offs.iter().find(|&&o| !close(got.get(o), want.get(o))) {
                    return Err(format!(
                        "rank {} array {} differs from the sequential interpreter at offset {}: {:?} vs {:?}",
                        pid,
                        name,
                        off,
                        got.get(off),
                        want.get(off)
                    ));
                }
            }
        }
        Ok(())
    }
}
