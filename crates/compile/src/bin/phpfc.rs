//! `phpfc` — command-line driver for the privatization compiler.
//!
//! ```text
//! phpfc <file.hpf> [--version replication|producer|selected|no-reduction|
//!                              no-array-priv|no-partial-priv]
//!                  [--procs P1[,P2[,P3]]]
//!                  [--combine]         enable global message combining
//!                  [--auto-priv]       enable automatic array privatization
//!                  [--estimate]        print the simulated SP2 cost
//!                  [--observe]         run on the backend, print observed
//!                                      traffic and cross-check it
//!                                      against the cost model
//!                  [--backend thread|socket]
//!                                      the message-passing backend to run
//!                                      on (threads over channels, the
//!                                      default, or one OS process per
//!                                      virtual processor over sockets);
//!                                      implies --observe
//!                  [--trace <path>]    record an observability trace of
//!                                      the run (pipeline phase spans +
//!                                      per-rank comm events), write it as
//!                                      chrome://tracing JSON to <path>
//!                                      and print the compact text
//!                                      timeline; implies --observe
//!                  [--fault-plan <p>]  socket backend only: inject the
//!                                      given deterministic faults (e.g.
//!                                      "corrupt:0>1@2,kill:1@8" or
//!                                      "seed:42") and self-heal by
//!                                      rerunning a failed run from the
//!                                      start with a fresh cohort and —
//!                                      when the budget is exhausted —
//!                                      thread-backend fallback; a plan
//!                                      naming a rank outside the grid is
//!                                      an error
//!                  [--verify]          run the static verifier on the
//!                                      lowered program (privatization
//!                                      soundness, schedule matching /
//!                                      deadlock-freedom / epoch-cut
//!                                      closure, happens-before races)
//!                                      and print rustc-style diagnostics;
//!                                      nonzero exit on any error
//!                  [--verify-trace <path>]
//!                                      read a chrome://tracing JSON file
//!                                      previously written with --trace
//!                                      and check that its per-rank comm
//!                                      event order is a linearization of
//!                                      the program's static
//!                                      happens-before relation
//!                  [--net-io-deadline-ms <ms>]
//!                  [--net-connect-deadline-ms <ms>]
//!                                      socket backend I/O and connect
//!                                      deadlines
//!                  [--pretty]          echo the parsed program back
//! ```
//!
//! With no flags it prints the compilation report (mapping decisions,
//! guards, communication schedule, the iterations each rank visits).
//! `--fault-plan` and the two deadlines need `--backend socket`; without
//! it they are a usage error (exit 2).

use hpf_compile::{compile_source, compile_source_traced, netrun, Options, Version};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Thread,
    Socket,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: phpfc <file.hpf> [--version <v>] [--procs P1[,P2,..]] \
         [--combine] [--auto-priv] [--estimate] [--observe] \
         [--backend thread|socket] [--trace <path>] \
         [--verify] [--verify-trace <path>] [--fault-plan <plan>] \
         [--net-io-deadline-ms <ms>] [--net-connect-deadline-ms <ms>] \
         [--pretty]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut file: Option<String> = None;
    let mut version = Version::SelectedAlignment;
    let mut grid: Option<Vec<usize>> = None;
    let mut combine = false;
    let mut auto_priv = false;
    let mut estimate = false;
    let mut observe = false;
    let mut pretty = false;
    let mut backend = Backend::Thread;
    let mut trace_path: Option<String> = None;
    let mut verify = false;
    let mut verify_trace_path: Option<String> = None;
    let mut fault_plan_src: Option<String> = None;
    let mut net_io_deadline_ms: Option<u64> = None;
    let mut net_connect_deadline_ms: Option<u64> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--version" => {
                let Some(v) = args.next() else { return usage() };
                version = match Version::from_flag(&v) {
                    Some(v) => v,
                    None => {
                        eprintln!("unknown version '{}'", v);
                        return usage();
                    }
                };
            }
            "--backend" => {
                let Some(v) = args.next() else { return usage() };
                backend = match v.as_str() {
                    "thread" => Backend::Thread,
                    "socket" => Backend::Socket,
                    other => {
                        eprintln!("unknown backend '{}' (thread|socket)", other);
                        return usage();
                    }
                };
                // A backend is only observable by running on it.
                observe = true;
            }
            "--procs" => {
                let Some(v) = args.next() else { return usage() };
                match v.split(',').map(|x| x.parse::<usize>()).collect::<Result<Vec<_>, _>>() {
                    Ok(dims) if !dims.is_empty() && dims.iter().all(|&d| d > 0) => {
                        grid = Some(dims)
                    }
                    _ => {
                        eprintln!("bad --procs '{}' (need positive extents)", v);
                        return usage();
                    }
                }
            }
            "--trace" => {
                let Some(p) = args.next() else { return usage() };
                trace_path = Some(p);
                // A trace is only interesting for an actual run.
                observe = true;
            }
            "--verify" => verify = true,
            "--verify-trace" => {
                let Some(p) = args.next() else { return usage() };
                verify_trace_path = Some(p);
            }
            "--fault-plan" => {
                let Some(p) = args.next() else { return usage() };
                fault_plan_src = Some(p);
            }
            "--net-io-deadline-ms" => {
                let Some(v) = args.next() else { return usage() };
                match v.parse::<u64>() {
                    Ok(ms) if ms > 0 => net_io_deadline_ms = Some(ms),
                    _ => {
                        eprintln!("bad --net-io-deadline-ms '{}'", v);
                        return usage();
                    }
                }
            }
            "--net-connect-deadline-ms" => {
                let Some(v) = args.next() else { return usage() };
                match v.parse::<u64>() {
                    Ok(ms) if ms > 0 => net_connect_deadline_ms = Some(ms),
                    _ => {
                        eprintln!("bad --net-connect-deadline-ms '{}'", v);
                        return usage();
                    }
                }
            }
            "--combine" => combine = true,
            "--auto-priv" => auto_priv = true,
            "--estimate" => estimate = true,
            "--observe" => observe = true,
            "--pretty" => pretty = true,
            "-h" | "--help" => return usage(),
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(other.to_string())
            }
            other => {
                eprintln!("unknown argument '{}'", other);
                return usage();
            }
        }
    }
    let Some(file) = file else { return usage() };
    if backend != Backend::Socket {
        let socket_only = [
            ("--fault-plan", fault_plan_src.is_some()),
            ("--net-io-deadline-ms", net_io_deadline_ms.is_some()),
            ("--net-connect-deadline-ms", net_connect_deadline_ms.is_some()),
        ];
        if let Some((flag, _)) = socket_only.iter().find(|(_, given)| *given) {
            eprintln!("phpfc: {} needs --backend socket", flag);
            return usage();
        }
    }
    let fault_plan = match fault_plan_src.as_deref().map(str::trim) {
        None | Some("") => None,
        Some(s) => match netrun::FaultPlan::parse(s) {
            Ok(p) if p.is_empty() => None,
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("phpfc: bad fault plan '{}': {}", s, e);
                return usage();
            }
        },
    };
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("phpfc: cannot read {}: {}", file, e);
            return ExitCode::FAILURE;
        }
    };

    if pretty {
        match hpf_ir::parse_program(&src) {
            Ok(p) => {
                print!("{}", hpf_ir::pretty::print_program(&p));
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("phpfc: {}: {}", file, e);
                return ExitCode::FAILURE;
            }
        }
    }

    let mut opts = Options::new(version);
    if let Some(g) = grid.clone() {
        opts = opts.with_grid(g);
    }
    if combine {
        opts = opts.with_message_combining();
    }
    if auto_priv {
        opts.core.auto_array_priv = true;
    }
    // Pipeline phase spans land here; the socket backend records its own
    // (its driver recompiles), so only the in-process paths use this one.
    let mut pipe = hpf_obs::BufTracer::pipeline();
    let want_pipe_spans = trace_path.is_some() && backend != Backend::Socket;
    let compiled = match if want_pipe_spans {
        compile_source_traced(&src, opts, &mut pipe)
    } else {
        compile_source(&src, opts)
    } {
        Ok(c) => c,
        Err(e) => {
            eprintln!("phpfc: {}: {}", file, e);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", compiled.report());
    if estimate {
        let r = compiled.estimate();
        println!("== simulated cost ({}) ==", compiled.options.machine.name);
        println!("total    {:>12.6} s", r.total_s());
        println!("compute  {:>12.6} s", r.compute_s);
        println!("comm     {:>12.6} s", r.comm_s);
        println!("messages {:>12.0}", r.messages);
        println!("bytes    {:>12.0}", r.bytes);
    }
    // Deterministic non-trivial data in every real array so the
    // communication paths actually move values. The verify paths share
    // this init: DGEFA-style data-dependent schedules communicate
    // differently under different data, so the verifier must replay the
    // same memory the observed runs used.
    // A socket run's workers get the same data from `NetJob::with_default_fills`.
    let init = |m: &mut hpf_ir::Memory| netrun::fill_defaults(&compiled.spmd.program, m);

    if verify {
        // Verify the schedule the chosen backend runs: socket workers
        // replay the executor's trace; the thread backend picks its
        // engine per program.
        let report = if backend == Backend::Socket {
            println!("verify: exec+replay (socket workers replay the executor's trace)");
            compiled.verify_executor_schedule(init)
        } else {
            println!("verify: {}", hpf_spmd::engine(&compiled.spmd));
            compiled.verify(init)
        };
        print!("{}", compiled.render_diagnostics(&report));
        if !report.is_clean() {
            eprintln!(
                "phpfc: verification FAILED with {} error(s)",
                report.error_count()
            );
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &verify_trace_path {
        let json = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("phpfc: cannot read {}: {}", path, e);
                return ExitCode::FAILURE;
            }
        };
        let recorded = match hpf_obs::parse_chrome_json(&json) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("phpfc: cannot parse {}: {}", path, e);
                return ExitCode::FAILURE;
            }
        };
        let report = compiled.verify_trace(&recorded, init);
        print!("{}", compiled.render_diagnostics(&report));
        if report.is_clean() {
            println!(
                "verify-trace: {} is a linearization of the static happens-before relation",
                path
            );
        } else {
            eprintln!(
                "phpfc: trace verification FAILED with {} error(s)",
                report.error_count()
            );
            return ExitCode::FAILURE;
        }
    }

    if observe {
        // A real message-passing run, validated against its oracle.
        let mut trace_out: Option<hpf_obs::Trace> = None;
        let mut degraded = false;
        let observed = match backend {
            Backend::Thread => hpf_spmd::validate_replay_traced(
                &compiled.spmd,
                init,
                true,
                trace_path.is_some(),
            )
            .map(|r| {
                let nproc = compiled.spmd.maps.grid.total();
                let engine = r.engine.expect("the thread backend reports its engine");
                match engine {
                    hpf_spmd::Engine::Node => println!(
                        "backend thread: node programs on {} worker threads matched the \
                         sequential interpreter ({} wire messages)",
                        nproc, r.metrics.messages()
                    ),
                    hpf_spmd::Engine::Replay(_) => println!(
                        "backend thread: replay on {} worker threads matched the reference \
                         executor ({} wire messages)",
                        nproc, r.metrics.messages()
                    ),
                }
                println!("engine: {}", engine);
                println!(
                    "BENCH_JSON {{\"table\":\"replay\",\"backend\":\"thread\",\
                     \"degraded\":false,\"metrics\":{}}}",
                    r.metrics.to_json()
                );
                trace_out = r.obs;
                r.metrics
            }),
            Backend::Socket => {
                let job = netrun::NetJob {
                    source: src.clone(),
                    version,
                    grid: grid.clone(),
                    combine,
                    auto_priv,
                    vectorize: true,
                    trace: trace_path.is_some(),
                    fills: Vec::new(),
                };
                let mut ncfg = netrun::NetRunConfig::default();
                if let Some(ms) = net_io_deadline_ms {
                    ncfg.io_deadline = std::time::Duration::from_millis(ms);
                }
                if let Some(ms) = net_connect_deadline_ms {
                    ncfg.connect_deadline = std::time::Duration::from_millis(ms);
                }
                ncfg.fault_plan = fault_plan.clone();
                job.with_default_fills()
                    .and_then(|job| netrun::socket_validate_replay(&job, &ncfg))
                    .map(|r| {
                        if r.degraded {
                            println!(
                                "backend socket: DEGRADED — recovery budget exhausted; \
                                 result validated on the in-process thread fallback \
                                 ({} wire messages)",
                                r.metrics.messages()
                            );
                        } else {
                            println!(
                                "backend socket: replay on {} worker processes matched the \
                                 reference executor ({} wire messages)",
                                compiled.spmd.maps.grid.total(),
                                r.metrics.messages()
                            );
                        }
                        println!(
                            "BENCH_JSON {{\"table\":\"replay\",\"backend\":\"socket\",\
                             \"degraded\":{},\"metrics\":{}}}",
                            r.degraded,
                            r.metrics.to_json()
                        );
                        degraded = r.degraded;
                        trace_out = r.obs;
                        r.metrics
                    })
            }
        };
        match observed {
            Ok(metrics) => {
                print!("{}", hpf_compile::report::render_observed(&compiled, &metrics));
                let cost = compiled.estimate();
                match hpf_spmd::cross_check(&compiled.spmd, &cost, &metrics) {
                    Ok(chk) => println!(
                        "cross-check: observed {} wire messages <= predicted {:.0}",
                        chk.observed_total, chk.predicted_total
                    ),
                    Err(e) => {
                        eprintln!("phpfc: cross-check FAILED: {}", e);
                        return ExitCode::FAILURE;
                    }
                }
                if let Some(path) = &trace_path {
                    let mut trace = trace_out.unwrap_or_default();
                    if want_pipe_spans {
                        trace.prepend_pipeline(pipe.into_events());
                    }
                    // The trace must agree with the wire accounting: per
                    // rank, send/recv event counts equal the metrics
                    // tallies exactly.
                    let counts = trace.comm_counts();
                    for (r, p) in metrics.per_proc.iter().enumerate() {
                        let (s, v) = (
                            counts.sends.get(r).copied().unwrap_or(0),
                            counts.recvs.get(r).copied().unwrap_or(0),
                        );
                        if s != p.sent_messages || v != p.recv_messages {
                            eprintln!(
                                "phpfc: trace/metrics mismatch on rank {}: trace {}s/{}r, \
                                 metrics {}s/{}r",
                                r, s, v, p.sent_messages, p.recv_messages
                            );
                            // Fault-plan runs keep salvaged evidence from
                            // failed cohorts in the trace; only a
                            // fault-free run treats a mismatch as fatal.
                            if fault_plan.is_none() && !degraded {
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
                        eprintln!("phpfc: cannot write {}: {}", path, e);
                        return ExitCode::FAILURE;
                    }
                    print!("{}", trace.to_text());
                    println!(
                        "trace: wrote {} ({} events; comm counts match wire metrics)",
                        path,
                        trace.len()
                    );
                }
            }
            Err(e) => {
                eprintln!("phpfc: {}", e);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
