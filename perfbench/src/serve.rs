//! The serve workload: an in-process `manta-serve` daemon over a fresh
//! store, driven by closed-loop clients that send SB-ISA assembly.
//!
//! Each round starts a fresh daemon and store, then sends every module
//! of one coreutils copy three times in a seeded order, so about two
//! thirds of the requests are cache reads. Rounds cycle through a fixed
//! set of copies. The traced run also replays the same requests in
//! process, one public layer call at a time, to split a request's time
//! by layer and to isolate what the daemon adds on top.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use manta::cache::{config_hash, decode_result, encode_result, module_fingerprint};
use manta::{AnalysisCache, Engine};
use manta_serve::proto::{Request, Response};
use manta_serve::{Client, ServeConfig, Server};
use manta_store::Key;

use crate::inputs::{coreutils_asm, derive, shuffled, Input, Unit, COREUTILS_COPIES};
use crate::pipeline::{config, lift, run_engine, traced_infer, traced_substrate, Counts, Quality};
use crate::report::{median, mib, peak_rss_mib, percentile, reset_peak_rss, set_layers, Outcome};
use crate::trace::Tracer;
use crate::{alloc, more_setups, Args, RunDir};

/// Times each module is sent per round.
const SENDS: usize = 3;
/// Timed in-process replays of a round's schedule in the traced run.
const REPLAY_PASSES: usize = 3;

/// One copy's modules, their requests and the seeded send order.
struct Inputs {
    copy: usize,
    units: Vec<Unit>,
    requests: Vec<Request>,
    schedule: Vec<usize>,
}

impl Inputs {
    fn generate(seed: u64, copy: usize) -> Result<Inputs, String> {
        let units = coreutils_asm(seed, copy)?;
        let requests = units
            .iter()
            .map(|u| match &u.input {
                Input::Asm(text) => Ok(Request::Analyze {
                    module_text: text.clone(),
                    sensitivity: config().sensitivity,
                    fuel: None,
                    deadline_ms: None,
                }),
                _ => Err("serve inputs are assembly".to_string()),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let n = units.len();
        let schedule = shuffled(n * SENDS, derive(seed, 4, copy))
            .into_iter()
            .map(|k| k % n)
            .collect();
        Ok(Inputs {
            copy,
            units,
            requests,
            schedule,
        })
    }
}

/// A daemon over its own store, with the clients connected.
struct Daemon {
    server: Server,
    cache: Arc<AnalysisCache>,
    clients: Vec<Client>,
    dir: PathBuf,
}

/// Counters of one finished round's daemon and store.
struct DaemonStats {
    overloaded: u64,
    bytes_in: u64,
    bytes_out: u64,
    hit_ratio: f64,
    entries: usize,
    disk_bytes: u64,
}

impl Daemon {
    fn start(dir: PathBuf, clients: usize) -> Result<Daemon, String> {
        let cache = Arc::new(AnalysisCache::open(&dir).map_err(|e| format!("store: {e}"))?);
        let engine = Engine::builder()
            .config(config())
            .cache(Arc::clone(&cache))
            .build()
            .map_err(|e| format!("engine: {e}"))?;
        let server = Server::spawn(
            engine,
            ServeConfig {
                workers: clients,
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("daemon: {e}"))?;
        let clients = (0..clients)
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon {
            server,
            cache,
            clients,
            dir,
        })
    }

    /// Disconnects the clients, drains the daemon and removes its store.
    fn stop(self) -> DaemonStats {
        let Daemon {
            server,
            cache,
            clients,
            dir,
        } = self;
        drop(clients);
        let serve = server.stats();
        let store = cache.store();
        let (hits, misses) = store
            .kind_traffic()
            .iter()
            .filter(|(kind, _, _)| *kind == "infer")
            .fold((0, 0), |(h, m), &(_, kh, km)| (h + kh, m + km));
        let stats = DaemonStats {
            overloaded: serve.overloaded,
            bytes_in: serve.bytes_in,
            bytes_out: serve.bytes_out,
            hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
            entries: store.len(),
            disk_bytes: store.disk_usage(),
        };
        server.shutdown();
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
        stats
    }
}

/// Generates one copy's inputs and starts a daemon for them: the work
/// `setup_s` times.
fn setup(
    args: &Args,
    copy: usize,
    run_dir: &RunDir,
    clients: usize,
) -> Result<(Inputs, Daemon), String> {
    let inputs = Inputs::generate(args.seed, copy)?;
    let daemon = Daemon::start(run_dir.fresh("store"), clients)?;
    Ok((inputs, daemon))
}

/// One request as its client saw it.
struct Answer {
    start: Instant,
    end: Instant,
    response: Result<Response, String>,
}

impl Answer {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Sends the whole schedule, each client taking the next request once
/// its previous reply arrived. Returns the answers by schedule position.
fn round(inputs: &Inputs, clients: &mut [Client]) -> Vec<Option<Answer>> {
    let next = AtomicUsize::new(0);
    let per_client: Vec<Vec<(usize, Answer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&module) = inputs.schedule.get(pos) else {
                            break;
                        };
                        let start = Instant::now();
                        let response = client
                            .call(&inputs.requests[module])
                            .map_err(|e| e.to_string());
                        let end = Instant::now();
                        got.push((
                            pos,
                            Answer {
                                start,
                                end,
                                response,
                            },
                        ));
                    }
                    got
                })
            })
            .collect();
        // A client thread that panicked leaves its requests unanswered;
        // they count as failed.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut answers: Vec<Option<Answer>> = inputs.schedule.iter().map(|_| None).collect();
    for (pos, answer) in per_client.into_iter().flatten() {
        answers[pos] = Some(answer);
    }
    answers
}

/// Checks every answer against the in-process encoding of its module.
/// Identity with that reference also makes every cache hit
/// byte-identical to its module's first (miss) answer. Returns the
/// latencies (ms) and functions of the answers that passed.
fn check_round(
    inputs: &Inputs,
    answers: &[Option<Answer>],
    reference: &[Vec<u8>],
    out: &mut Outcome,
) -> (Vec<f64>, usize) {
    let mut latencies = Vec::new();
    let mut funcs = 0;
    for (pos, answer) in answers.iter().enumerate() {
        out.attempted += 1;
        let module = inputs.schedule[pos];
        let name = &inputs.units[module].name;
        let Some(answer) = answer else {
            out.fail(format!("{name}: no answer"));
            continue;
        };
        match &answer.response {
            Ok(Response::Analyzed {
                result,
                degraded: false,
                ..
            }) if *result == reference[module] => {
                latencies.push(answer.ms());
                funcs += inputs.units[module].functions;
            }
            Ok(Response::Analyzed {
                degraded: false, ..
            }) => out.fail(format!("{name}: answer differs from the in-process result")),
            Ok(Response::Analyzed { summary, .. }) => {
                out.fail(format!("{name}: degraded ({summary})"))
            }
            Ok(other) => out.fail(format!("{name}: {other:?}")),
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    }
    (latencies, funcs)
}

/// Replays one request in process the way the daemon serves it: lift,
/// substrate, store lookup, and on a miss inference plus a store write.
fn replay(
    tracer: &mut Tracer,
    root: usize,
    unit: &Unit,
    cache: &AnalysisCache,
    counts: &mut Counts,
) -> Result<Vec<u8>, String> {
    let module = tracer.layer(root, "isa.asm_lift", || lift(&unit.input))?;
    let analysis = traced_substrate(tracer, root, module, counts);
    let key = Key::new(
        "infer",
        module_fingerprint(analysis.module()),
        config_hash(&config(), None),
    );
    let hit = tracer.layer(root, "store", || {
        cache.sync_module(&analysis);
        cache
            .store()
            .get(&key)
            .and_then(|bytes| decode_result(&bytes).ok())
    });
    let result = match hit {
        Some(result) => result,
        None => {
            let result = traced_infer(tracer, root, &analysis, counts);
            tracer
                .layer(root, "store", || {
                    cache.store().put(&key, &encode_result(&result))
                })
                .map_err(|e| format!("store put: {e}"))?;
            result
        }
    };
    Ok(encode_result(&result))
}

/// Runs the workload.
pub fn run(args: &Args, run_dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let clients = 2.min(crate::nproc());

    // The in-process answer every response must equal, and the ground
    // truth scores, for each copy the rounds cycle through.
    let engine = Engine::new(config());
    let mut reference = Vec::with_capacity(COREUTILS_COPIES);
    let mut quality = Quality::default();
    for copy in 0..COREUTILS_COPIES {
        let mut encoded = Vec::new();
        for unit in &coreutils_asm(args.seed, copy)? {
            let v = run_engine(&engine, &unit.input).map_err(|e| format!("{}: {e}", unit.name))?;
            encoded.push(encode_result(&v.result));
            quality.merge(&Quality::score(unit, &v));
        }
        reference.push(encoded);
    }

    let mut setup_s = Vec::new();
    let mut current: Option<(Inputs, Daemon)> = None;
    while more_setups(&setup_s) {
        if let Some((_, daemon)) = current.take() {
            daemon.stop();
        }
        let start = Instant::now();
        current = Some(setup(args, 0, run_dir, clients)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (mut inputs, mut daemon) = current.ok_or("no set-up ran")?;

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut latencies = Vec::new();
    // Client latencies by copy and schedule position, for the traced
    // run's daemon overhead.
    let mut latency_at: Vec<Vec<Vec<f64>>> = vec![Vec::new(); COREUTILS_COPIES];
    let (mut wall, mut funcs) = (0.0, 0usize);
    let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());
    let mut client_peak = 0usize;
    reset_peak_rss();
    let mut rounds = 0u32;
    while rounds == 0 || wall < args.seconds || (args.trace && rounds < 2) {
        if rounds > 0 {
            daemon.stop();
            let start = Instant::now();
            (inputs, daemon) = setup(args, rounds as usize % COREUTILS_COPIES, run_dir, clients)?;
            setup_s.push(start.elapsed().as_secs_f64());
        }
        // The traced run alternates plain and traced rounds, starting
        // plain, so tracing overhead is measured within one run.
        let traced = args.trace && rounds % 2 == 1;
        alloc::set_counting(traced);
        let base = alloc::mark();
        let start = Instant::now();
        let answers = round(&inputs, &mut daemon.clients);
        let end = Instant::now();
        alloc::set_counting(false);
        let round_wall = (end - start).as_secs_f64();
        wall += round_wall;
        if traced {
            client_peak = client_peak.max(alloc::peak_since(base));
            traced_wall.push(round_wall);
            tracer.set_pass(rounds);
            let root = tracer.record("round", None, inputs.copy as u32, start, end);
            for (pos, a) in answers.iter().enumerate() {
                if let Some(a) = a {
                    tracer.record("serve.client", Some(root), pos as u32, a.start, a.end);
                }
            }
        } else {
            plain_wall.push(round_wall);
        }
        let at = &mut latency_at[inputs.copy];
        at.resize(answers.len(), Vec::new());
        for (pos, a) in answers.iter().enumerate() {
            if let Some(a) = a {
                at[pos].push(a.ms());
            }
        }
        let (lat, f) = check_round(&inputs, &answers, &reference[inputs.copy], &mut out);
        latencies.extend(lat);
        funcs += f;
        rounds += 1;
    }
    let peak_rss = peak_rss_mib();
    let last = daemon.stop();

    if !args.trace {
        let ok = latencies.len() as f64;
        out.set("setup_s", median(&mut setup_s));
        out.set("funcs_per_s", funcs as f64 / wall);
        out.set("requests_per_s", ok / wall);
        out.set("latency_p50_ms", percentile(&mut latencies, 0.5));
        out.set("latency_p90_ms", percentile(&mut latencies, 0.9));
        out.set("peak_rss_mib", peak_rss.ok_or("no peak RSS")?);
        out.set(
            "ok_share",
            (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        );
        quality.report(&mut out);
        return Ok(out);
    }

    // Traced run: replay rounds in process, layer by layer, each over a
    // fresh store, and pair each request with its client latency. The
    // first replay counts heap and serves for heap peaks only.
    let mut replay_tracer = Tracer::new(epoch);
    let mut heap = Tracer::new(epoch);
    let mut overhead = Vec::new();
    let mut counts = Counts::default();
    let mut isa_bytes = 0;
    for pass in 0..=REPLAY_PASSES {
        let count_heap = pass == 0;
        let t = if count_heap {
            &mut heap
        } else {
            &mut replay_tracer
        };
        let inputs = Inputs::generate(args.seed, pass % COREUTILS_COPIES)?;
        let dir = run_dir.fresh("replay");
        let cache = AnalysisCache::open(&dir).map_err(|e| format!("replay store: {e}"))?;
        t.set_pass(pass as u32);
        counts = Counts::default();
        isa_bytes = 0;
        for (pos, &module) in inputs.schedule.iter().enumerate() {
            let unit = &inputs.units[module];
            isa_bytes += unit.input.size();
            let root = t.open("request", pos as u32);
            alloc::set_counting(count_heap);
            let replayed = replay(t, root, unit, &cache, &mut counts);
            alloc::set_counting(false);
            t.close(root);
            let replay_ms: f64 = t.spans()[root + 1..].iter().map(|s| s.ms()).sum();
            match latency_at[inputs.copy].get_mut(pos) {
                Some(lat) if !count_heap && !lat.is_empty() => {
                    let client_ms = median(lat);
                    overhead.push((client_ms - replay_ms) / client_ms);
                }
                _ => {}
            }
            out.attempted += 1;
            match replayed {
                Ok(bytes) if bytes == reference[inputs.copy][module] => {}
                Ok(_) => out.fail(format!("{}: replay differs from reference", unit.name)),
                Err(e) => out.fail(format!("{}: replay: {e}", unit.name)),
            }
        }
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }
    set_layers(&mut out, &replay_tracer.layers(), &heap.layers());
    out.set("serve.client.peak_heap_mib", mib(client_peak));
    counts.report(&mut out);
    out.set("isa.bytes", isa_bytes as f64);
    out.set("serve.overhead_share", median(&mut overhead));
    out.set("serve.overloaded", last.overloaded as f64);
    out.set("serve.bytes_in", last.bytes_in as f64);
    out.set("serve.bytes_out", last.bytes_out as f64);
    out.set("store.hit_ratio", last.hit_ratio);
    out.set("store.entries", last.entries as f64);
    out.set("store.disk_bytes", last.disk_bytes as f64);
    out.set("pass.ms", median(&mut replay_tracer.pass_ms()));
    out.set(
        "trace.overhead_share",
        median(&mut traced_wall) / median(&mut plain_wall) - 1.0,
    );
    tracer.absorb(replay_tracer);
    tracer.absorb(heap);
    crate::write_trace(args, &tracer);
    Ok(out)
}
