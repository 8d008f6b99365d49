//! `sim-replay`: record the paper-scale `matmul-wa` and `fft` access-run
//! streams once by running the public kernels through a recording
//! [`Mem`], then replay them through the simulators' public entry points.

use crate::trace::{layer, Tracer};
use dense::desc::alloc_layout;
use dense::matmul::{blocked_matmul, LoopOrder};
use dense::workloads::{deep_geometry, fast_words, sim_block_and_dim};
use memsim::{memsim_report, stack_report, Mem, MemSim, StackSim, TraceMem};
use wa_core::{AccessRun, BackendKind, Mat, RunReport, Scale, Traffic};

/// A [`Mem`] that performs the kernel's arithmetic on plain memory and
/// records every access as the run the kernel issued it as.
struct RunRecorder {
    data: Vec<f64>,
    runs: Vec<AccessRun>,
}

impl Mem for RunRecorder {
    fn ld(&mut self, addr: usize) -> f64 {
        self.runs.push(AccessRun::read(addr, 1));
        self.data[addr]
    }

    fn st(&mut self, addr: usize, v: f64) {
        self.runs.push(AccessRun::write(addr, 1));
        self.data[addr] = v;
    }

    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        self.runs.push(AccessRun::read(addr, out.len()));
        out.copy_from_slice(&self.data[addr..addr + out.len()]);
    }

    fn st_run(&mut self, addr: usize, src: &[f64]) {
        self.runs.push(AccessRun::write(addr, src.len()));
        self.data[addr..addr + src.len()].copy_from_slice(src);
    }

    fn len(&self) -> usize {
        self.data.len()
    }
}

/// One recorded stream.
pub struct Stream {
    /// Registry name of the workload whose kernel produced it.
    pub name: &'static str,
    pub runs: Vec<AccessRun>,
    /// Words of backing memory the stream addresses.
    pub words: usize,
    /// Word accesses (sum of run lengths).
    pub accesses: u64,
}

impl Stream {
    fn new(name: &'static str, rec: RunRecorder) -> Stream {
        let accesses = rec.runs.iter().map(|r| r.words as u64).sum();
        Stream {
            name,
            words: rec.data.len(),
            runs: rec.runs,
            accesses,
        }
    }

    /// Share of word accesses that are writes.
    pub fn write_frac(&self) -> f64 {
        let w: u64 = self
            .runs
            .iter()
            .filter(|r| r.is_write)
            .map(|r| r.words as u64)
            .sum();
        w as f64 / self.accesses.max(1) as f64
    }
}

/// The `matmul-wa` simmed cell's stream at paper scale: the same layout,
/// block size and loop order the registry stages.
pub fn record_matmul_wa() -> Stream {
    let (bsize, n) = sim_block_and_dim(Scale::Paper);
    let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
    let mut rec = RunRecorder {
        data: vec![0.0; words],
        runs: Vec::new(),
    };
    d[0].store_mat(&mut rec, &Mat::random(n, n, 11));
    d[1].store_mat(&mut rec, &Mat::random(n, n, 12));
    rec.runs.clear(); // staging is not part of the kernel's stream
    blocked_matmul(&mut rec, d[0], d[1], d[2], bsize, LoopOrder::Ijk);
    Stream::new("matmul-wa", rec)
}

/// The `fft` simmed cell's stream at paper scale (2^15 points).
pub fn record_fft() -> Stream {
    let n = 1usize << 15;
    let mut data = vec![0.0; 2 * n];
    for i in 0..n {
        data[2 * i] = (i as f64 * 0.1).sin();
        data[2 * i + 1] = (i as f64 * 0.2).cos();
    }
    let mut rec = RunRecorder {
        data,
        runs: Vec::new(),
    };
    cdag::fft::fft_mem(&mut rec, 0, n);
    Stream::new("fft", rec)
}

/// The five replay paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `MemSim::run` + flush on one LRU level of `fast_words(Paper)`.
    MemsimD1,
    /// `MemSim::run` + flush on the depth-3 `deep_geometry(Paper, 3)` stack.
    MemsimD3,
    /// `StackSim::run`, then `StackSim::curve`.
    Stack,
    /// Every run through `TraceMem`.
    Traced,
    /// `Traffic::run`.
    Traffic,
}

impl Path {
    pub const ALL: [Path; 5] = [
        Path::MemsimD1,
        Path::MemsimD3,
        Path::Stack,
        Path::Traced,
        Path::Traffic,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Path::MemsimD1 => "memsim-d1",
            Path::MemsimD3 => "memsim-d3",
            Path::Stack => "stack",
            Path::Traced => "traced",
            Path::Traffic => "traffic",
        }
    }
}

/// What one replay produced.
pub struct Replayed {
    /// Canonical counts, compared with the reference.
    pub counts: String,
    /// The report the replay projects to, for the paths that mirror an
    /// engine backend (`memsim-d1` ≙ simmed, `stack` ≙ stack).
    pub report: Option<RunReport>,
    /// Host seconds of the replay itself (for `stack`, the run only).
    pub run_s: f64,
    /// Host seconds of `StackSim::curve` (`stack` only).
    pub curve_s: f64,
    /// MemSim memo hits and misses (`memsim-*` only).
    pub memo: (u64, u64),
    /// Word accesses the path saw (`traced` and `traffic` only), which
    /// must equal the stream's.
    pub words_seen: Option<u64>,
}

impl Replayed {
    fn new(counts: String, run_s: f64) -> Replayed {
        Replayed {
            counts,
            report: None,
            run_s,
            curve_s: 0.0,
            memo: (0, 0),
            words_seen: None,
        }
    }

    /// A replay whose counts are those of the report it projects to.
    fn projected(r: RunReport, run_s: f64) -> Replayed {
        Replayed {
            report: Some(r.clone()),
            ..Replayed::new(crate::reference::canonical(&r), run_s)
        }
    }
}

pub fn reference_key(stream: &Stream, path: Path) -> String {
    format!("replay|{}|{}", stream.name, path.as_str())
}

/// Replay `stream` through `path`. Only the replay itself runs inside the
/// span; projecting the counts for the check happens after it.
pub fn replay(stream: &Stream, path: Path, tr: Option<&Tracer>) -> Replayed {
    let span = format!("replay {} {}", stream.name, path.as_str());
    let blank = |b| RunReport::new(stream.name, b, Scale::Paper);
    let memsim = |caps: &[usize]| {
        let (sim, run_s) = layer(tr, &span, "memsim", || {
            let mut sim = MemSim::stacked_lru(caps);
            sim.run(&stream.runs);
            sim.flush();
            sim
        });
        let r = memsim_report(&sim, blank(BackendKind::Simmed));
        Replayed {
            memo: (sim.memo_hits, sim.memo_misses),
            ..Replayed::projected(r, run_s)
        }
    };
    match path {
        Path::MemsimD1 => memsim(&[fast_words(Scale::Paper)]),
        Path::MemsimD3 => {
            let (_, caps, _) = deep_geometry(Scale::Paper, 3);
            let caps: Vec<usize> = caps.iter().map(|&c| c as usize).collect();
            Replayed {
                report: None,
                ..memsim(&caps)
            }
        }
        Path::Stack => {
            let (sim, run_s) = layer(tr, &span, "stack", || {
                let mut sim = StackSim::new();
                sim.run(&stream.runs);
                sim
            });
            let (curve, curve_s) = layer(tr, &format!("curve {}", stream.name), "stack", || {
                sim.curve()
            });
            std::hint::black_box(&curve);
            let r = stack_report(&sim, fast_words(Scale::Paper), blank(BackendKind::Stack));
            Replayed {
                curve_s,
                ..Replayed::projected(r, run_s)
            }
        }
        Path::Traced => {
            let (mem, run_s) = layer(tr, &span, "traced", || {
                let mut mem = TraceMem::new(stream.words);
                let mut buf = Vec::new();
                for r in &stream.runs {
                    buf.resize(r.words, 0.0);
                    if r.is_write {
                        mem.st_run(r.addr, &buf);
                    } else {
                        mem.ld_run(r.addr, &mut buf);
                    }
                }
                mem
            });
            let writes = mem.trace.iter().filter(|a| a.is_write).count();
            let addr_sum = mem
                .trace
                .iter()
                .fold(0u64, |s, a| s.wrapping_add(a.addr as u64));
            let len = mem.trace.len();
            Replayed {
                words_seen: Some(len as u64),
                ..Replayed::new(
                    format!("len={len} writes={writes} addr_sum={addr_sum}"),
                    run_s,
                )
            }
        }
        Path::Traffic => {
            let (t, run_s) = layer(tr, &span, "traffic", || {
                let mut t = Traffic::ZERO;
                t.run(std::hint::black_box(&stream.runs));
                t
            });
            let counts = format!(
                "{}/{}/{}/{}",
                t.load_words, t.load_msgs, t.store_words, t.store_msgs
            );
            Replayed {
                words_seen: Some(t.total_words()),
                ..Replayed::new(counts, run_s)
            }
        }
    }
}
