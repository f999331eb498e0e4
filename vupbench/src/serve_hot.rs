//! `serve_hot`: the online read path. An in-process daemon
//! (`Server::bind` + `AppHandler`, 2 workers, executor threads 1,
//! paper-default model, every model trained during set-up) is driven
//! open-loop at a fixed rate over 2 keep-alive connections; one op is
//! one `POST /v1/predict-batch` of 4 vehicles, timed on the wire and
//! from when it was due to be sent.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use vup_core::executor::CancelToken;
use vup_core::forecast::forecast_horizon;
use vup_core::{PipelineConfig, VehicleView};
use vup_fleetsim::{Fleet, FleetConfig, VehicleId};
use vup_net::{
    AppHandler, Handler, Limits, RequestParser, Server, ServerConfig, WireBatchRequest,
    WireRequest, WireResponse,
};
use vup_obs::{FleetMonitor, MonitorConfig, Registry, Tracer};
use vup_serve::{splitmix64, BatchRequest, PredictionService, ServeOutcome};
use vup_shard::{Partitioner, ShardOptions, ShardedService};

use crate::calib::{Kernel, Measurement, Rounds, Setups, Typical};
use crate::screen;
use crate::stats::{self, Report};
use crate::sys::{self, timed};
use crate::trace::{self, maybe, Trace};
use crate::Options;

/// Vehicles generated per fleet; the request pool is drawn from them.
const FLEET_SIZE: usize = 48;
/// Vehicles requests draw from (every one trained during set-up).
const POOL: usize = 24;
/// Vehicles per request.
const BATCH: usize = 4;
/// Scenario days forecast per vehicle.
const HORIZON: usize = 3;
/// Open-loop request rate over both connections, near half of what
/// the daemon sustains closed-loop on a 2-vCPU machine.
pub const RATE_PER_S: f64 = 1000.0;
/// Client connections (one generator thread each).
const CONNECTIONS: usize = 2;
/// Daemon connection workers.
const WORKERS: usize = 2;
/// Prediction executor threads of the daemon's service.
const EXECUTOR_THREADS: usize = 1;
/// Daemon admission-queue bound.
const QUEUE: usize = 64;
/// Closed-loop requests sent before timing starts.
const WARMUP_REQUESTS: usize = 400;
/// A run whose generator lagged its own schedule by more than this at
/// p99 was not an open loop at the stated rate; it counts as failed.
pub const LATE_BOUND_MS: f64 = 10.0;
/// Requests per round; each round is timed between two kernel
/// measurements (see [`crate::calib`]).
const ROUND: usize = 125;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests replayed through each layer's function in the traced run.
const REPLAY: usize = 400;
/// Untraced and traced replay passes of the traced run.
const OVERHEAD_ROUNDS: usize = 5;

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `request` and reads the response's status and body.
    fn call(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("status line {line:?}"))
            })?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

fn post(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/predict-batch HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const METRICS_REQUEST: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";

/// `n` seeded batches of `BATCH` distinct pool vehicles.
fn batches(seed: u64, pool: &[VehicleId], n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| {
            let mut h = splitmix64(seed ^ splitmix64(i as u64));
            let mut batch = Vec::with_capacity(BATCH);
            while batch.len() < BATCH {
                let id = pool[(h % pool.len() as u64) as usize].0;
                if !batch.contains(&id) {
                    batch.push(id);
                }
                h = splitmix64(h);
            }
            batch
        })
        .collect()
}

fn request_body(vehicles: &[u32]) -> String {
    serde_json::to_string(&WireRequest {
        requests: vehicles
            .iter()
            .map(|&vehicle_id| WireBatchRequest {
                vehicle_id,
                horizon: HORIZON,
            })
            .collect(),
        as_of: None,
    })
    .expect("request serializes")
}

/// What one response says about its op.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// 200, every outcome served from cache, hours as the reference.
    Ok,
    /// Not answered as a full cache-hit batch (shed, error, degraded).
    Failed(String),
    /// Answered with forecasts that differ from the reference.
    Wrong(String),
}

/// One answered outcome: vehicle, wire status, hours.
type Answer = (u32, String, Vec<f64>);

/// Reads the outcomes of a 200 response body.
fn answers(body: &[u8]) -> Result<Vec<Answer>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let response: WireResponse = serde_json::from_str(text).map_err(|e| e.to_string())?;
    Ok(response
        .outcomes
        .into_iter()
        .map(|o| (o.vehicle_id, o.status, o.hours))
        .collect())
}

/// Checks a request's answers against the in-process reference.
fn check(got: &[Answer], vehicles: &[u32], reference: &BTreeMap<u32, Vec<f64>>) -> Verdict {
    if got.len() != vehicles.len() {
        return Verdict::Wrong("outcome count differs from request".into());
    }
    for ((id, status, hours), &vehicle) in got.iter().zip(vehicles) {
        if *id != vehicle {
            return Verdict::Wrong(format!("outcome for {id} in place of {vehicle}"));
        }
        if status != "served" {
            return Verdict::Failed(format!("vehicle {vehicle} {status}"));
        }
        let same = reference.get(&vehicle).is_some_and(|want| {
            want.len() == hours.len()
                && want
                    .iter()
                    .zip(hours)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !same {
            return Verdict::Wrong(format!(
                "vehicle {vehicle} hours {hours:?} differ from the reference"
            ));
        }
    }
    Verdict::Ok
}

/// Checks one response against the in-process reference forecasts.
pub fn verdict(
    status: u16,
    body: &[u8],
    vehicles: &[u32],
    reference: &BTreeMap<u32, Vec<f64>>,
) -> Verdict {
    if status != 200 {
        return Verdict::Failed(format!("status {status}"));
    }
    match answers(body) {
        Ok(got) => check(&got, vehicles, reference),
        Err(e) => Verdict::Wrong(format!("unreadable response: {e}")),
    }
}

/// Hours of every served outcome, by vehicle; `Err` names a vehicle the
/// service did not serve.
fn hours_by_vehicle<'a>(
    outcomes: impl IntoIterator<Item = &'a ServeOutcome>,
) -> Result<BTreeMap<u32, Vec<f64>>, String> {
    let mut out = BTreeMap::new();
    for outcome in outcomes {
        let forecast = outcome
            .forecast()
            .filter(|_| !outcome.is_degraded())
            .ok_or_else(|| format!("{:?}", outcome.provenance().reason))?;
        out.insert(forecast.vehicle_id, forecast.hours.clone());
    }
    Ok(out)
}

fn pool_requests(pool: &[VehicleId]) -> Vec<BatchRequest> {
    pool.iter()
        .map(|&vehicle_id| BatchRequest {
            vehicle_id,
            horizon: HORIZON,
        })
        .collect()
}

/// One timed request.
struct Sample {
    due: Duration,
    sent: Duration,
    done: Duration,
    /// Send delay the generator itself caused (see [`drive`]).
    lag: Duration,
    /// The answers of a 200 response, or why there were none.
    answer: Result<Vec<Answer>, String>,
}

/// Open-loop drive of one round: request `i` is due at
/// `start + offset + i / RATE_PER_S` and goes out on connection
/// `i % CONNECTIONS`. Times are taken from `start`.
fn drive(
    clients: &mut [Client],
    requests: &[Vec<u8>],
    start: Instant,
    offset: Duration,
) -> Vec<Sample> {
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut free = offset;
                    for i in (c..requests.len()).step_by(CONNECTIONS) {
                        let due = offset + Duration::from_secs_f64(i as f64 / RATE_PER_S);
                        let now = start.elapsed();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = start.elapsed();
                        // The generator's own lag: how long after the
                        // request could first go out (due, and the
                        // connection free) it actually went.
                        let lag = sent.saturating_sub(due.max(free));
                        let answer = client.call(&requests[i]);
                        let done = start.elapsed();
                        let answer = match answer {
                            Ok((200, body)) => answers(&body),
                            Ok((status, _)) => Err(format!("status {status}")),
                            Err(e) => Err(format!("connection: {e}")),
                        };
                        free = done;
                        out.push((
                            i,
                            Sample {
                                due,
                                sent,
                                done,
                                lag,
                                answer,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, sample)| sample).collect()
}

/// Largest number of requests due but not yet sent at any moment.
fn max_backlog(samples: &[Sample]) -> usize {
    let mut events: Vec<(Duration, i64)> = Vec::with_capacity(samples.len() * 2);
    for s in samples {
        events.push((s.due, 1));
        events.push((s.sent, -1));
    }
    // At equal times a send leaves the backlog before the next arrives.
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut now, mut max) = (0i64, 0i64);
    for (_, delta) in events {
        now += delta;
        max = max.max(now);
    }
    max as usize
}

/// `vup_net_request_nanos` sum and count from a `/metrics` scrape.
fn request_nanos(text: &str) -> Option<(f64, f64)> {
    let value = |suffix: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("vup_net_request_nanos{suffix} ")))
            .and_then(|v| v.trim().parse::<f64>().ok())
    };
    Some((value("_sum")?, value("_count")?))
}

/// What the traced replay runs each request through.
struct Replay<'a, 'f> {
    fleet: &'f Fleet,
    handler: &'a AppHandler<'f>,
    sharded: &'a mut ShardedService<'f>,
    views: &'a BTreeMap<u32, VehicleView>,
    reference: &'a BTreeMap<u32, Vec<f64>>,
}

impl Replay<'_, '_> {
    /// Runs each request through `RequestParser::poll`, `WireRequest`
    /// decoding, `AppHandler::handle`, `WireResponse` encoding,
    /// `PredictionService::serve_batch`, `forecast_horizon` and the
    /// 2-shard coordinator, checking every answer against the
    /// reference. Returns the response bytes and the gate failures.
    fn run(
        &mut self,
        mut t: Option<&mut Trace>,
        requests: &[Vec<u8>],
        vehicles: &[Vec<u32>],
    ) -> Result<(usize, Vec<String>), String> {
        let service = self.handler.service();
        let config = service.config();
        let mut failures = Vec::new();
        let mut gate = |ok: bool, what: &str| {
            if !ok {
                failures.push(what.to_string());
            }
        };
        let matches = |outcomes: &[ServeOutcome]| {
            hours_by_vehicle(outcomes).is_ok_and(|h| {
                h.iter()
                    .all(|(id, hours)| self.reference.get(id) == Some(hours))
            })
        };
        let mut response_bytes = 0;
        let mut parser = RequestParser::new(Limits::default());
        for (bytes, vehicles) in requests.iter().zip(vehicles) {
            let request = maybe(t.as_deref_mut(), "net.parse", || {
                parser.push(bytes);
                parser.poll()
            })
            .map_err(|e| format!("parse: {e:?}"))?
            .ok_or("parser wants more bytes")?;
            let body = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let wire: WireRequest = maybe(t.as_deref_mut(), "net.decode", || {
                serde_json::from_str(body)
            })
            .map_err(|e| format!("decode: {e}"))?;
            let response = maybe(t.as_deref_mut(), "net.handle", || {
                self.handler.handle(&request)
            });
            response_bytes += response.body.len();
            let verdict = verdict(response.status, &response.body, vehicles, self.reference);
            gate(
                verdict == Verdict::Ok,
                "replayed handle answers differ from the reference",
            );
            let text = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
            let parsed: WireResponse = serde_json::from_str(text).map_err(|e| e.to_string())?;
            let encoded = maybe(t.as_deref_mut(), "net.encode", || {
                serde_json::to_string_pretty(&parsed)
            })
            .map_err(|e| e.to_string())?;
            gate(
                encoded == text,
                "re-encoded response differs from the handler's",
            );
            let batch: Vec<BatchRequest> = wire
                .requests
                .iter()
                .map(|r| BatchRequest {
                    vehicle_id: VehicleId(r.vehicle_id),
                    horizon: r.horizon,
                })
                .collect();
            let served = maybe(t.as_deref_mut(), "serve.batch", || {
                service.serve_batch(&batch, None)
            });
            gate(
                matches(&served),
                "replayed serve_batch differs from the reference",
            );
            for r in &batch {
                let stored = service
                    .store()
                    .peek(r.vehicle_id, config)
                    .ok_or("pool vehicle has no model")?;
                let view = &self.views[&r.vehicle_id.0];
                let hours = maybe(t.as_deref_mut(), "core.predict", || {
                    forecast_horizon(&stored.predictor, view, self.fleet, r.horizon)
                })
                .map_err(|e| e.to_string())?;
                gate(
                    self.reference.get(&r.vehicle_id.0) == Some(&hours),
                    "forecast_horizon differs from the reference",
                );
            }
            let sharded = &mut *self.sharded;
            let merged = maybe(t.as_deref_mut(), "shard.batch", || {
                sharded.serve_batch(&batch, None)
            });
            gate(
                matches(&merged.outcomes),
                "2-shard replay differs from the reference",
            );
        }
        Ok((response_bytes, failures))
    }
}

/// Drives `requests` in rounds of [`ROUND`], each timed between two
/// kernel measurements taken while the daemon is idle. Returns every
/// sample, in request order, and each round's kernel measurements and
/// CPU time.
fn drive_rounds(
    clients: &mut [Client],
    requests: &[Vec<u8>],
    kernel: &mut Kernel,
) -> Result<(Vec<Sample>, Vec<Round>), String> {
    let start = Instant::now();
    let mut samples = Vec::with_capacity(requests.len());
    let mut rounds = Vec::new();
    let mut before = kernel.measure()?;
    for chunk in requests.chunks(ROUND) {
        let cpu_before = sys::cpu_seconds();
        samples.extend(drive(clients, chunk, start, start.elapsed()));
        let cpu_s = sys::cpu_seconds() - cpu_before;
        let after = kernel.measure()?;
        rounds.push(Round {
            before,
            after,
            cpu_s,
        });
        before = after;
    }
    Ok((samples, rounds))
}

/// One round's kernel measurements before and after it, and its CPU
/// time (s).
struct Round {
    before: Measurement,
    after: Measurement,
    cpu_s: f64,
}

struct Timed {
    samples: Vec<Sample>,
    rounds: Vec<Round>,
    server_us: Option<f64>,
    shed: u64,
}

/// Runs the workload.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut kernel = Kernel::with_sockets().map_err(|e| format!("calibration kernel: {e}"))?;
    let mut setups = Setups::default();
    let n_ops = (RATE_PER_S * options.seconds as f64) as usize;
    let config = PipelineConfig::default();
    for rep in 0..SETUPS {
        let last = rep + 1 == SETUPS;
        let measured = kernel.measure()?;
        let start = Instant::now();
        let mut st = Trace::new();
        let fleet = st.span("fleetsim.generate", |_| {
            Fleet::generate(FleetConfig::small(FLEET_SIZE, options.seed))
        });
        let mut pool = Vec::new();
        for vehicle in fleet.vehicles() {
            if screen::qualifies(
                &mut st,
                &fleet,
                vehicle.id,
                config.train_window + config.max_lag,
            )? {
                pool.push(vehicle.id);
            }
        }
        if pool.len() < POOL {
            return Err(format!(
                "only {} of {FLEET_SIZE} vehicles qualify, {POOL} needed",
                pool.len()
            ));
        }
        pool.truncate(POOL);
        let vehicles = batches(options.seed, &pool, n_ops + WARMUP_REQUESTS);
        let requests: Vec<Vec<u8>> = vehicles.iter().map(|v| post(&request_body(v))).collect();

        let registry = Registry::new();
        let service =
            PredictionService::new_observed(&fleet, config.clone(), EXECUTOR_THREADS, &registry)
                .map_err(|e| e.to_string())?;
        hours_by_vehicle(&service.serve_batch(&pool_requests(&pool), None))
            .map_err(|e| format!("set-up training failed: {e}"))?;
        let server_config = ServerConfig {
            workers: WORKERS,
            queue_capacity: QUEUE,
            ..ServerConfig::default()
        };
        let server = Server::bind(server_config, &registry).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handler = AppHandler::new(
            service,
            registry.clone(),
            FleetMonitor::observed(&registry, MonitorConfig::default()),
            server.status(),
            QUEUE,
        );
        let token = CancelToken::new();
        let timed_phase = std::thread::scope(|s| {
            let daemon = s.spawn(|| server.run(&handler, &token));
            let result = (|| -> Result<Option<Timed>, String> {
                let mut clients = (0..CONNECTIONS)
                    .map(|_| Client::connect(addr))
                    .collect::<io::Result<Vec<_>>>()
                    .map_err(|e| format!("connect: {e}"))?;
                for (i, request) in requests[n_ops..].iter().enumerate() {
                    let (status, _) = clients[i % CONNECTIONS]
                        .call(request)
                        .map_err(|e| format!("warm-up: {e}"))?;
                    if status != 200 {
                        return Err(format!("warm-up request answered {status}"));
                    }
                }
                let took = start.elapsed().as_secs_f64();
                setups.record(measured, kernel.measure()?, took);
                if !last {
                    return Ok(None);
                }
                let scrape = |client: &mut Client| -> Result<(f64, f64), String> {
                    let (_, body) = client.call(METRICS_REQUEST).map_err(|e| e.to_string())?;
                    request_nanos(&String::from_utf8_lossy(&body))
                        .ok_or("no vup_net_request_nanos".into())
                };
                let before = if options.trace {
                    Some(scrape(&mut clients[0])?)
                } else {
                    None
                };
                let (samples, rounds) =
                    drive_rounds(&mut clients, &requests[..n_ops], &mut kernel)?;
                let server_us = match before {
                    Some((sum0, count0)) => {
                        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                        let (sum1, count1) = scrape(&mut client)?;
                        Some((sum1 - sum0) / (count1 - count0 - 1.0).max(1.0) / 1e3)
                    }
                    None => None,
                };
                Ok(Some(Timed {
                    samples,
                    rounds,
                    server_us,
                    shed: server.status().summary().shed,
                }))
            })();
            token.cancel();
            daemon.join().expect("daemon thread");
            result
        })?;
        if let Some(timed) = timed_phase {
            finish(
                &mut report,
                options,
                &fleet,
                &pool,
                &vehicles[..n_ops],
                &requests[..n_ops],
                &handler,
                timed,
                &setups,
                st,
            )?;
        }
    }
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn finish(
    report: &mut Report,
    options: &Options,
    fleet: &Fleet,
    pool: &[VehicleId],
    vehicles: &[Vec<u32>],
    requests: &[Vec<u8>],
    handler: &AppHandler<'_>,
    phase: Timed,
    setups: &Setups,
    setup_trace: Trace,
) -> Result<(), String> {
    let config = handler.service().config().clone();
    // The reference: a fresh in-process service answering the same
    // vehicles, and the 2-shard coordinator answering them again.
    let reference = PredictionService::new(fleet, config.clone(), 1).map_err(|e| e.to_string())?;
    let reference = hours_by_vehicle(&reference.serve_batch(&pool_requests(pool), None))
        .map_err(|e| format!("reference: {e}"))?;
    let (sharded, build_took) = timed(|| {
        ShardedService::build(
            fleet,
            config.clone(),
            ShardOptions {
                threads: 1,
                ..ShardOptions::new(2)
            },
            &Registry::disabled(),
            &Tracer::disabled(),
        )
    });
    let mut sharded = sharded.map_err(|e| format!("shard build: {e}"))?;
    let merged = sharded.serve_batch(&pool_requests(pool), None);
    report.gate(
        hours_by_vehicle(&merged.outcomes).as_ref() == Ok(&reference),
        "2-shard outcomes differ from the in-process reference",
    );

    let ops = phase.samples.len();
    let run_ms = phase.samples.last().map_or(0.0, |s| sys::ms(s.done));
    // Two timings per request: from its due time (what an open-loop
    // client waits, backlog included) and on the wire (send to full
    // response). The end-to-end median uses wire time: with two
    // synchronous connections, one stalled response delays every
    // later request on its connection, so due-time figures are set by
    // how often the virtual machine stalls rather than by the daemon.
    let mut due_ms = Vec::with_capacity(ops);
    let mut late_ms = Vec::with_capacity(ops);
    let mut wire_ms = Vec::with_capacity(ops);
    let (mut hits, mut outcomes) = (0usize, 0usize);
    for (i, sample) in phase.samples.iter().enumerate() {
        let verdict = match &sample.answer {
            Ok(got) => {
                outcomes += got.len();
                hits += got
                    .iter()
                    .filter(|(_, status, _)| status == "served")
                    .count();
                check(got, &vehicles[i], &reference)
            }
            Err(why) => Verdict::Failed(why.clone()),
        };
        let ok = verdict == Verdict::Ok;
        report.tally.record(ok);
        if let Verdict::Wrong(why) = verdict {
            report.gate(false, format!("request {i}: {why}"));
        }
        late_ms.push(sys::ms(sample.lag));
        // A request that was not answered in full misses any limit.
        wire_ms.push(if ok {
            sys::ms(sample.done - sample.sent)
        } else {
            run_ms
        });
        due_ms.push(if ok {
            sys::ms(sample.done - sample.due)
        } else {
            run_ms
        });
    }
    let late_p99 = stats::percentile(&late_ms, 0.99).unwrap_or(f64::INFINITY);
    if late_p99 > LATE_BOUND_MS {
        report.tally.fail_all();
        report.notes.push(format!(
            "generator fell behind: p99 generator lag {late_p99:.3} ms > {LATE_BOUND_MS} ms; every op counts as failed"
        ));
    }
    report
        .notes
        .push(stats::timing_note("latency from due time", &due_ms));
    report.notes.push(format!(
        "serve_hot: {ops} requests at {RATE_PER_S} req/s over {CONNECTIONS} connections; p99 generator lag {late_p99:.3} ms; max backlog {}",
        max_backlog(&phase.samples)
    ));

    let mut rounds = Rounds::new(Typical::MedianOp);
    for (round, wire) in phase.rounds.iter().zip(wire_ms.chunks(ROUND)) {
        rounds.record(round.before, round.after, wire, round.cpu_s);
    }
    if !options.trace {
        setups.report_end_to_end(report);
        report.metric("peak_rss_mb", "MiB", sys::peak_rss_mib(), 1);
        rounds.report_end_to_end(report);
        report.notes.push(stats::timing_note(
            "latency on the wire at reference speed",
            &rounds.reference_ms,
        ));
        return Ok(());
    }
    setups.report_raw(report);
    rounds.report_raw(report);

    // Traced run: replay a sample of the request stream through each
    // layer's public function, alternately untraced and traced; the
    // median traced pass against the median untraced one is the
    // overhead.
    let replay = REPLAY.min(ops);
    let views: BTreeMap<u32, VehicleView> = pool
        .iter()
        .map(|&id| (id.0, VehicleView::build(fleet, id, config.scenario)))
        .collect();
    let mut ctx = Replay {
        fleet,
        handler,
        sharded: &mut sharded,
        views: &views,
        reference: &reference,
    };
    let mut t = Trace::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut response_bytes = 0;
    for _ in 0..OVERHEAD_ROUNDS {
        for traced in [false, true] {
            let (pass, took) = timed(|| {
                let t = if traced { Some(&mut t) } else { None };
                ctx.run(t, &requests[..replay], &vehicles[..replay])
            });
            let (bytes, failures) = pass?;
            response_bytes = bytes;
            for failure in failures {
                report.gate(false, failure);
            }
            if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(took.as_secs_f64());
        }
    }
    report.metric(
        "obs.trace_overhead_pct",
        "%",
        100.0 * (stats::median(&traced_s) / stats::median(&untraced_s) - 1.0),
        OVERHEAD_ROUNDS,
    );
    let partitioner = Partitioner::new(2);
    let route_calls = 100_000u32;
    let (_, route) = timed(|| {
        for i in 0..route_calls {
            std::hint::black_box(partitioner.shard_of(VehicleId(std::hint::black_box(i))));
        }
    });

    let per_call_us = |name: &str| {
        let totals = t.totals(name);
        totals.self_ns as f64 / 1e3 / totals.calls.max(1) as f64
    };
    let replayed = (replay * OVERHEAD_ROUNDS) as u64;
    let per_op_us = |name: &str| t.totals(name).self_ns as f64 / 1e3 / replayed as f64;
    for (metric, span) in [
        ("net.parse_us", "net.parse"),
        ("net.decode_us", "net.decode"),
        ("net.handle_us", "net.handle"),
        ("net.encode_us", "net.encode"),
        ("serve.batch_us", "serve.batch"),
        ("shard.batch_us", "shard.batch"),
    ] {
        report.metric(metric, "us", per_call_us(span), replay);
    }
    report.metric("core.predict_us", "us", per_op_us("core.predict"), replay);
    report.count(
        "core.predicts",
        t.totals("core.predict").calls / replay as u64,
    );
    report.metric(
        "net.response_bytes",
        "bytes",
        response_bytes as f64 / replay as f64,
        replay,
    );
    report.metric("shard.build_ms", "ms", sys::ms(build_took), 1);
    report.metric(
        "shard.route_ns",
        "ns",
        route.as_nanos() as f64 / f64::from(route_calls),
        route_calls as usize,
    );
    let server_us = phase.server_us.ok_or("no /metrics scrape")?;
    let wire_us = 1e3 * stats::mean(&wire_ms);
    report.metric("net.server_us", "us", server_us, ops);
    report.metric("net.wait_us", "us", wire_us - server_us, ops);
    report.count("net.shed", phase.shed);
    report.count("net.errors", report.tally.failed);
    report.metric(
        "serve.hit_ratio",
        "ratio",
        if outcomes == 0 {
            0.0
        } else {
            hits as f64 / outcomes as f64
        },
        outcomes,
    );
    report.metric("net.due_p50_ms", "ms", stats::median(&due_ms), ops);
    if let Some((p90, _)) = stats::windowed_percentile(&rounds.reference_ms, 0.9) {
        report.metric("op.p90_ms", "ms", p90, ops);
    }
    if let Some(p99) = stats::percentile(&due_ms, 0.99) {
        report.metric("net.latency_p99_ms", "ms", p99, ops);
    }
    report.metric("gen.late_ms", "ms", late_p99, ops);
    report.count("gen.backlog", max_backlog(&phase.samples) as u64);
    report.metric(
        "fleetsim.generate_ms",
        "ms",
        setup_trace.layer_ns("fleetsim") as f64 / 1e6,
        1,
    );
    report.metric(
        "dataprep.prepare_ms",
        "ms",
        setup_trace.layer_ns("dataprep") as f64 / 1e6,
        1,
    );
    report.count(
        "dataprep.prepare_calls",
        setup_trace.totals("dataprep.prepare").calls,
    );

    // Shares of the mean request time on the wire. The daemon's time
    // beyond an uncontended replay of the handler is lock and CPU
    // contention under load; it and the socket, queue and parse time
    // outside the handler are the net layer's, with decode and encode.
    // Inside the handler, serve_batch is serve (forecast_horizon in it
    // is core); what the handler does besides is `other`.
    let handle_us = per_call_us("net.handle");
    report.metric("net.contention_us", "us", server_us - handle_us, ops);
    let predict = per_op_us("core.predict");
    let batch = per_call_us("serve.batch");
    let layer_us = |layer: &str| match layer {
        "core" => predict,
        "serve" => batch - predict,
        "net" => per_call_us("net.decode") + per_call_us("net.encode") + (wire_us - handle_us),
        _ => 0.0,
    };
    for (name, pct) in trace::shares_of(layer_us, crate::SHARE_LAYERS, wire_us) {
        report.metric(&name, "%", pct, replay);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_net::WireOutcome;
    use vup_serve::ServeJournal;

    fn body(hours: &[f64]) -> Vec<u8> {
        serde_json::to_string_pretty(&WireResponse {
            outcomes: vec![WireOutcome {
                vehicle_id: 5,
                status: "served".into(),
                hours: hours.to_vec(),
                trained_at: Some(300),
                detail: None,
            }],
            journal: ServeJournal::default(),
        })
        .unwrap()
        .into_bytes()
    }

    #[test]
    fn matching_responses_pass_and_perturbed_ones_trip_the_gate() {
        let reference = BTreeMap::from([(5, vec![7.5, 8.0, 6.25])]);
        assert_eq!(
            verdict(200, &body(&[7.5, 8.0, 6.25]), &[5], &reference),
            Verdict::Ok
        );
        let perturbed = [7.5, 8.0, f64::from_bits(6.25f64.to_bits() + 1)];
        assert!(matches!(
            verdict(200, &body(&perturbed), &[5], &reference),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            verdict(200, &body(&[7.5]), &[6], &reference),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            verdict(503, b"", &[5], &reference),
            Verdict::Failed(_)
        ));
    }

    #[test]
    fn backlog_counts_requests_due_but_unsent() {
        let ms = Duration::from_millis;
        let sample = |due, sent| Sample {
            due: ms(due),
            sent: ms(sent),
            done: ms(sent + 1),
            lag: Duration::ZERO,
            answer: Ok(Vec::new()),
        };
        // Sent when due: never waiting.
        assert_eq!(max_backlog(&[sample(0, 0), sample(1, 1)]), 0);
        // The second and third are both due before the first is sent.
        assert_eq!(max_backlog(&[sample(0, 5), sample(1, 6), sample(2, 7)]), 3);
    }

    #[test]
    fn batches_are_seeded_and_distinct() {
        let pool: Vec<VehicleId> = (0..8).map(VehicleId).collect();
        let a = batches(3, &pool, 50);
        assert_eq!(a, batches(3, &pool, 50));
        assert_ne!(a, batches(4, &pool, 50));
        for batch in &a {
            let mut ids = batch.clone();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), BATCH);
        }
    }

    #[test]
    fn scrape_reads_the_request_histogram() {
        let text = "vup_net_request_nanos_bucket{le=\"1000\"} 3\nvup_net_request_nanos_sum 5000\nvup_net_request_nanos_count 4\n";
        assert_eq!(request_nanos(text), Some((5000.0, 4.0)));
    }
}
