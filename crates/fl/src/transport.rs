//! Threaded, message-passing execution of an FL system — fault-tolerant.
//!
//! [`FlSystem::run`](crate::FlSystem::run) trains clients in process, fanned
//! out on the shared worker pool. This module provides the *distributed*
//! execution mode, [`run_threaded_wire`]: every client runs on its own OS
//! thread and communicates with the server **exclusively through typed
//! messages over channels**, the way a deployed cross-silo system exchanges
//! models over the network. No memory is shared between server and clients
//! beyond the messages. Once a round's updates are collected, both engines
//! finish it through the same close-out (fold, aggregate, report).
//!
//! # Fault tolerance
//!
//! Unlike the in-process engine, the threaded engine must survive partial
//! participation: client threads can die mid-round, drop their upload,
//! straggle past a deadline, or fail transiently and recover. Collection is
//! therefore **accounting-driven with a deadline backstop**
//! ([`RoundPolicy`]): the server tracks every outstanding client until it is
//! accounted for — by an update, a fault notice, a detected thread death, or
//! the round deadline (budgeted on the injectable [`Clock`], so a
//! [`ManualClock`](crate::clock::ManualClock) replay, whose deadline never
//! expires, still terminates through the accounting paths). The round then
//! aggregates if at least [`Quorum::required`] updates arrived — FedAvg is
//! sample-weighted, so the partial aggregate renormalizes over the arrived
//! subset — and otherwise fails with [`FlError::ClientFailure`]. Stale
//! updates from earlier rounds are tag-checked and discarded. Transient
//! failures are retried per [`RetryPolicy`]. Deterministic fault schedules
//! come from a [`FaultPlan`].
//!
//! # The wire plane
//!
//! Every model crossing a channel here is **encoded wire bytes**, not a
//! parameter handle: the server encodes the global snapshot once per round
//! (straight out of its copy-on-write buffers, no materialization) and
//! broadcasts the same `Arc`'d frame to every client; each client decodes
//! it, trains, and uploads an encoded frame back. [`WireConfig`] picks the
//! codec per direction — lossless `f32`, 1-bit signs, or quantized `i8`
//! deltas, with error-feedback residuals carried by each [`FlClient`] (so
//! they survive a split run and a resume image) — and a
//! [`NetworkModel`](crate::netsim::NetworkModel) prices every transfer on
//! a deterministic simulated network. Byte counts, frame counts and the
//! simulated per-round makespan surface as `fl.transport.*` telemetry and
//! in [`ResilientRun::wire_stats`]. A frame that fails to decode is typed
//! data, not a panic: a corrupt broadcast fails that client
//! ([`ClientReply::Fatal`]), a corrupt upload drops that update — the run
//! reports, it does not abort.
//!
//! The two engines are behaviourally identical on a healthy system: client
//! training is self-contained and the server sorts updates by client id
//! before aggregating, so [`run_threaded_wire`] produces bit-identical global
//! models to the in-process engine given the same seeds (the default
//! lossless codec moves exact `f32` bit patterns), and keeps doing so
//! under an injected [`FaultPlan`] for any worker-pool width (asserted by
//! the integration tests).

use crate::clock::Clock;
use crate::deadline::{recv_blocking, DeadlineReceiver, Step};
use crate::fault::{FaultKind, FaultPlan, RoundFaultStats, RoundPolicy};
use crate::netsim::{RoundMeter, RoundWireStats, WireConfig};
use crate::system::{close_round, TrainedClient};
use crate::{ClientUpdate, FlClient, FlError, FlSystem, Result, RoundReport};
use dinar_nn::snapshot::{decode_params, encode_params};
use dinar_nn::ModelParams;
use dinar_telemetry::{bridge, Telemetry};
use dinar_tensor::alloc::MemoryScope;
use dinar_tensor::wire::Codec;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A message from the server to a client.
#[derive(Debug)]
pub enum ServerMsg {
    /// Start (or retry) a round: here is the current global model as an
    /// encoded wire frame. One frame is encoded per round and shared
    /// (`Arc`) across the whole broadcast; each client decodes its own
    /// copy-free view.
    StartRound {
        /// Round number (1-based).
        round: usize,
        /// The global snapshot, encoded under
        /// [`WireConfig::downlink`].
        frame: Arc<Vec<u8>>,
    },
    /// Training is over; the client thread should return its client state.
    Shutdown,
}

/// A completed client round: the encoded update plus its per-round
/// measurements.
#[derive(Debug)]
pub struct ClientMsg {
    /// Round this update belongs to.
    pub round: usize,
    /// Uploading client's id.
    pub client_id: usize,
    /// Number of local training samples (FedAvg weight).
    pub num_samples: usize,
    /// The client's (defense-transformed) update, encoded under
    /// [`WireConfig::uplink`].
    pub frame: Vec<u8>,
    /// Whether `frame` encodes a delta against the round's broadcast
    /// global (lossy uplinks) rather than absolute parameters.
    pub delta: bool,
    /// The client's mean training loss this round.
    pub train_loss: f32,
    /// Client-side wall-clock seconds spent this round.
    pub train_s: f64,
    /// Peak extra tensor bytes this client's thread allocated during the
    /// round (its own [`MemoryScope`] ledger — per-thread, so concurrent
    /// clients never attribute each other's allocations).
    pub peak_mem_bytes: u64,
}

/// Everything a client can tell the server during collection.
#[derive(Debug)]
pub enum ClientReply {
    /// A finished round (possibly stale — the server tag-checks `round`).
    Update(ClientMsg),
    /// The client trained but its upload was lost ([`FaultKind::DropUpdate`]).
    Dropped {
        /// Reporting client.
        client: usize,
        /// Round the loss applies to.
        round: usize,
    },
    /// The client is a straggler this round: its update will arrive during
    /// a later round and be discarded as stale ([`FaultKind::Delay`]).
    Delayed {
        /// Reporting client.
        client: usize,
        /// Round being delayed.
        round: usize,
    },
    /// A retryable failure: the server may re-dispatch the round.
    Transient {
        /// Failing client.
        client: usize,
        /// Round that failed.
        round: usize,
        /// Failure description.
        cause: String,
    },
    /// A non-recoverable client error; the client thread exits after
    /// sending this.
    Fatal {
        /// Failing client.
        client: usize,
        /// Round that failed.
        round: usize,
        /// Failure description.
        cause: String,
    },
}

struct ClientHandle {
    id: usize,
    tx: Sender<ServerMsg>,
    join: thread::JoinHandle<Result<FlClient>>,
    /// Set once the client is known gone (crashed, fatal error, or its
    /// channel closed); the server stops dispatching rounds to it.
    departed: bool,
}

/// A completed fault-tolerant run: the reassembled system, the per-round
/// reports, and the per-round fault accounting.
#[derive(Debug)]
pub struct ResilientRun {
    /// The system after the run, clients reassembled in id order.
    pub system: FlSystem,
    /// Per-round training reports (one per *completed* round).
    pub reports: Vec<RoundReport>,
    /// Per-round fault accounting, parallel to `reports`.
    pub fault_stats: Vec<RoundFaultStats>,
    /// Per-round wire traffic and simulated network time, parallel to
    /// `reports`.
    pub wire_stats: Vec<RoundWireStats>,
}

/// Runs `rounds` FL rounds with one thread per client, consuming the system
/// and returning it with per-round reports and fault/wire accounting.
///
/// Message flow per round: the server encodes the global model once under
/// [`WireConfig::downlink`] and broadcasts it in a [`ServerMsg::StartRound`]
/// to every live client thread; each client decodes it (running its
/// download middleware), trains locally, applies its upload middleware and
/// sends the update back as a [`ClientReply`], encoded under
/// [`WireConfig::uplink`]. Every frame crosses the simulated
/// [`WireConfig::network`]. The server collects under `policy` (deadline,
/// quorum, retry, fault plan), sorts the arrived updates by client id for a
/// deterministic aggregation order and closes the round — FedAvg plus its
/// server middleware — exactly as the in-process engine does.
///
/// Rounds proceed while at least [`Quorum::required`] updates arrive; a
/// round that falls below quorum fails the run with
/// [`FlError::ClientFailure`] naming the first failed client. Telemetry
/// attached to the system before the call is preserved: rounds emit
/// `round[N]` spans with `encode`/`broadcast`/`collect`/`aggregate`
/// children and the `fl.transport.*` counters. `clock` times the reported
/// costs and budgets the deadline — pass a
/// [`ManualClock`](crate::clock::ManualClock) for deterministic reports.
///
/// The lossless config ([`WireConfig::lossless`]: `f32` both ways, ideal
/// network) carries exact bit patterns, so the decoded models match the
/// in-process engine bit for bit. Lossy uplinks switch clients to encoding
/// the *delta* against the received global, with error-feedback residuals
/// carried in each [`FlClient`] across rounds and runs; the server
/// reconstructs by adding back its own decode of the round's broadcast
/// frame, so both sides agree on the base even when the downlink is itself
/// lossy.
///
/// [`Quorum::required`]: crate::fault::Quorum::required
///
/// # Errors
///
/// Returns [`FlError::InvalidConfig`] for an unmeetable quorum or a
/// [`FaultKind::Stall`] plan without a deadline (a silent stall can only be
/// resolved by a deadline); [`FlError::ClientFailure`] for below-quorum
/// rounds or a dead client under full quorum; [`FlError::Nn`] wrapping a
/// wire error if the global snapshot cannot be encoded (architecture
/// exceeding the wire's `u32` fields); and propagates aggregation errors.
/// Per-frame decode failures do **not** abort the run: a corrupt broadcast
/// fails that client, a corrupt upload drops that update, and both land in
/// the round's fault accounting.
pub fn run_threaded_wire(
    system: FlSystem,
    rounds: usize,
    clock: Arc<dyn Clock>,
    policy: RoundPolicy,
    wire: WireConfig,
) -> Result<ResilientRun> {
    let telemetry = system.telemetry().clone();
    let (mut server, clients, rounds_before) = system.into_parts();
    let num_clients = clients.len();
    let required = policy.quorum.required(num_clients);
    if required > num_clients {
        return Err(FlError::InvalidConfig {
            reason: format!("quorum of {required} exceeds the {num_clients} clients"),
        });
    }
    if policy.deadline.is_none() && policy.faults.contains_kind(FaultKind::Stall) {
        return Err(FlError::InvalidConfig {
            reason: "a Stall fault plan requires a round deadline to resolve".into(),
        });
    }

    // Self-describing runs: the policy's fault seed and deadline become
    // deterministic gauges, so exported metrics (and the dropout bench rows
    // built from them) name the exact failure schedule they ran under.
    if telemetry.is_enabled() {
        if let Some(seed) = policy.faults.seed() {
            telemetry.gauge_set("fl.transport.fault_seed", seed as f64);
        }
        if let Some(deadline) = policy.deadline {
            telemetry.gauge_set(
                "fl.transport.deadline_ms",
                deadline.as_millis() as f64,
            );
        }
    }

    let (reply_tx, reply_rx): (Sender<ClientReply>, Receiver<ClientReply>) = channel();
    let plan = Arc::new(policy.faults.clone());

    // Spawn one thread per client; each owns its client state for the whole
    // training run and speaks only through channels.
    let mut handles: Vec<ClientHandle> = Vec::with_capacity(num_clients);
    for client in clients {
        handles.push(spawn_client(
            client,
            reply_tx.clone(),
            clock.clone(),
            plan.clone(),
            wire.uplink,
        ));
    }
    drop(reply_tx);
    // Client id → handle index, for retry dispatch and liveness checks.
    let index: BTreeMap<usize, usize> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| (h.id, i))
        .collect();

    let mut reports = Vec::with_capacity(rounds);
    let mut fault_stats = Vec::with_capacity(rounds);
    let mut wire_stats = Vec::with_capacity(rounds);
    let mut error: Option<FlError> = None;
    'rounds: for r in 1..=rounds {
        let round_span = telemetry.span(&format!("round[{}]", rounds_before + r));
        // Encode the broadcast once, straight out of the snapshot's shared
        // buffers; every client gets the same Arc'd frame.
        let global = server.global_params().share();
        let frame = {
            let _espan = telemetry.span("encode");
            match encode_params(&global, wire.downlink) {
                Ok(bytes) => Arc::new(bytes),
                Err(e) => {
                    error = Some(e.into());
                    break 'rounds;
                }
            }
        };
        // Base for reconstructing delta uploads: the server's own decode of
        // the frame it broadcast, so lossy downlinks leave both sides
        // agreeing on the base bit for bit. Lossless uplinks send absolute
        // parameters and need no base.
        let delta_base = if wire.uplink.is_lossy() {
            match decode_params(&frame) {
                Ok(base) => Some(base),
                Err(e) => {
                    error = Some(e.into());
                    break 'rounds;
                }
            }
        } else {
            None
        };
        let mut meter = RoundMeter::new(&wire.network);

        // Broadcast to every client still alive; a failed send means the
        // thread is gone — account it as dropped instead of failing the run.
        let mut pending: BTreeSet<usize> = BTreeSet::new();
        let mut dropped = 0usize;
        // First failure observed this round, for the below-quorum error.
        let mut first_failure: Option<(usize, String)> = None;
        {
            let _bspan = telemetry.span("broadcast");
            for handle in handles.iter_mut() {
                if handle.departed {
                    dropped += 1;
                    continue;
                }
                let sent = handle.tx.send(ServerMsg::StartRound {
                    round: r,
                    frame: frame.clone(),
                });
                if sent.is_err() {
                    handle.departed = true;
                    dropped += 1;
                    first_failure.get_or_insert((
                        handle.id,
                        "client thread exited before the round started".into(),
                    ));
                } else {
                    pending.insert(handle.id);
                    meter.sent_down(handle.id, frame.len() as u64);
                }
            }
        }

        // Collect until every dispatched client is accounted for or the
        // deadline (extended by retry backoff) expires.
        let round_start = clock.elapsed();
        let mut extension = Duration::ZERO;
        let mut retries: BTreeMap<usize, u32> = BTreeMap::new();
        let mut updates: Vec<(ClientMsg, ClientUpdate)> = Vec::with_capacity(pending.len());
        let mut retried = 0usize;
        let mut stale = 0usize;
        let mut deadline_expired = false;
        {
            let _cspan = telemetry.span("collect");
            let drx = DeadlineReceiver::new(&reply_rx, clock.as_ref());
            while !pending.is_empty() {
                // The simulated network's slowest path extends the deadline:
                // link transit time never counts against the compute budget.
                let deadline = policy
                    .deadline
                    .map(|d| round_start + d + extension + meter.deadline_allowance());
                match drx.step(deadline) {
                    Step::Msg(ClientReply::Update(msg)) => {
                        // The link carried the frame whether or not the round
                        // accepts it — meter before the tag check.
                        meter.received_up(msg.client_id, msg.frame.len() as u64);
                        // Tag check: a straggler's stale round-r update can
                        // arrive during round r+1 once deadlines exist.
                        if msg.round != r || !pending.remove(&msg.client_id) {
                            stale += 1;
                            continue;
                        }
                        // Decode at the trust boundary: a frame that fails
                        // validation is a dropped update, never an abort.
                        match decode_update(&msg, delta_base.as_ref()) {
                            Ok(update) => updates.push((msg, update)),
                            Err(e) => {
                                dropped += 1;
                                telemetry.flight_record(
                                    "wire",
                                    "update_decode_failed",
                                    msg.client_id as u64,
                                );
                                first_failure.get_or_insert((
                                    msg.client_id,
                                    format!("update frame failed to decode: {e}"),
                                ));
                            }
                        }
                    }
                    Step::Msg(ClientReply::Dropped { client, round })
                    | Step::Msg(ClientReply::Delayed { client, round }) => {
                        if round == r && pending.remove(&client) {
                            dropped += 1;
                        }
                    }
                    Step::Msg(ClientReply::Transient { client, round, cause }) => {
                        if round != r || !pending.contains(&client) {
                            continue;
                        }
                        let used = retries.entry(client).or_insert(0);
                        let handle = index.get(&client).map(|&i| &mut handles[i]);
                        if *used < policy.retry.max_retries {
                            *used += 1;
                            retried += 1;
                            extension += policy.retry.backoff;
                            let resent = handle.map(|h| {
                                h.tx.send(ServerMsg::StartRound {
                                    round: r,
                                    frame: frame.clone(),
                                })
                            });
                            if matches!(resent, Some(Ok(()))) {
                                meter.sent_down(client, frame.len() as u64);
                            } else {
                                pending.remove(&client);
                                dropped += 1;
                                first_failure.get_or_insert((client, cause));
                            }
                        } else {
                            pending.remove(&client);
                            dropped += 1;
                            first_failure
                                .get_or_insert((client, format!("retries exhausted: {cause}")));
                        }
                    }
                    Step::Msg(ClientReply::Fatal { client, round, cause }) => {
                        if let Some(&i) = index.get(&client) {
                            handles[i].departed = true;
                        }
                        if round == r && pending.remove(&client) {
                            dropped += 1;
                            first_failure.get_or_insert((client, cause));
                        }
                    }
                    Step::Tick => {
                        // Liveness: a pending client whose thread has exited
                        // will never report — the silent-death path that
                        // used to hang the server forever.
                        let dead: Vec<usize> = pending
                            .iter()
                            .copied()
                            .filter(|id| {
                                index
                                    .get(id)
                                    .is_some_and(|&i| handles[i].join.is_finished())
                            })
                            .collect();
                        for id in dead {
                            pending.remove(&id);
                            dropped += 1;
                            if let Some(&i) = index.get(&id) {
                                handles[i].departed = true;
                            }
                            first_failure
                                .get_or_insert((id, "client thread died mid-round".into()));
                        }
                    }
                    Step::Expired => {
                        deadline_expired = true;
                        dropped += pending.len();
                        if let Some(&id) = pending.iter().next() {
                            first_failure
                                .get_or_insert((id, "missed the round deadline".into()));
                        }
                        telemetry.flight_record(
                            "fault",
                            "deadline_expired",
                            pending.len() as u64,
                        );
                        telemetry.flight_dump_if_requested("deadline");
                        pending.clear();
                    }
                    Step::Disconnected => {
                        dropped += pending.len();
                        if let Some(&id) = pending.iter().next() {
                            first_failure
                                .get_or_insert((id, "all client threads disconnected".into()));
                        }
                        pending.clear();
                    }
                }
            }
        }

        record_round_telemetry(&telemetry, updates.len(), dropped, retried, stale);
        let round_wire = meter.finish(rounds_before + r);
        if telemetry.is_enabled() {
            bridge::record_wire_round(
                &telemetry,
                round_wire.bytes_down,
                round_wire.bytes_up,
                round_wire.frames,
            );
            // Simulated makespan of the slowest client path this round —
            // deterministic (a pure function of byte counts and the link
            // parameters), unlike the wall-clock cost samples.
            telemetry.gauge_set(
                "fl.transport.sim_round_ms",
                round_wire.sim_elapsed.as_secs_f64() * 1e3,
            );
        }
        if updates.len() < required {
            let (client, cause) = first_failure
                .unwrap_or((0, "no client failure observed".into()));
            telemetry.flight_record("fault", "quorum_failed", updates.len() as u64);
            telemetry.flight_dump_if_requested("quorum");
            error = Some(FlError::ClientFailure {
                client,
                round: rounds_before + r,
                cause: format!(
                    "round collected {} of {} updates, below quorum {required}: {cause}",
                    updates.len(),
                    num_clients
                ),
            });
            break 'rounds;
        }

        // Deterministic aggregation order regardless of arrival order; the
        // close-out's folds also run in sorted order so their floating-point
        // sums replay bit-identically.
        updates.sort_by_key(|(m, _)| m.client_id);
        let participants = updates.len();
        let trained = updates
            .into_iter()
            .map(|(m, update)| TrainedClient {
                loss: m.train_loss,
                train_s: m.train_s,
                // Each client thread measures its own MemoryScope, so
                // concurrent clients never attribute each other's
                // allocations.
                peak_mem: m.peak_mem_bytes,
                update,
            })
            .collect();
        match close_round(&mut server, &telemetry, clock.as_ref(), rounds_before + r, trained) {
            Ok(report) => reports.push(report),
            Err(e) => {
                error = Some(e);
                break 'rounds;
            }
        }
        drop(round_span);
        fault_stats.push(RoundFaultStats {
            round: rounds_before + r,
            participants,
            clients_dropped: dropped,
            clients_retried: retried,
            stale_discarded: stale,
            deadline_expired,
        });
        wire_stats.push(round_wire);
    }

    // Tear down the client threads and reassemble the system.
    for handle in &handles {
        if !handle.departed {
            let _ = handle.tx.send(ServerMsg::Shutdown);
        }
    }
    let attempted_rounds = rounds_before + reports.len() + usize::from(error.is_some());
    let mut clients = Vec::with_capacity(num_clients);
    for handle in handles {
        let id = handle.id;
        match handle.join.join() {
            Ok(Ok(client)) => clients.push(client),
            Ok(Err(e)) => error = error.or(Some(e)),
            Err(_) => {
                telemetry.flight_record("fault", "client_panic", id as u64);
                telemetry.flight_dump_if_requested("panic");
                error = error.or(Some(FlError::ClientFailure {
                    client: id,
                    round: attempted_rounds,
                    cause: "client thread panicked".into(),
                }));
            }
        }
    }
    if let Some(e) = error {
        return Err(e);
    }
    clients.sort_by_key(FlClient::id);
    let completed = rounds_before + reports.len();
    let mut system = FlSystem::from_parts(server, clients, completed);
    if telemetry.is_enabled() {
        system.set_telemetry(telemetry);
    }
    Ok(ResilientRun {
        system,
        reports,
        fault_stats,
        wire_stats,
    })
}

/// Decodes and validates one client upload at the server's trust boundary,
/// reconstructing absolute parameters from a delta frame by adding back
/// `delta_base` (the server's decode of the round's broadcast).
fn decode_update(msg: &ClientMsg, delta_base: Option<&ModelParams>) -> Result<ClientUpdate> {
    let mut params = decode_params(&msg.frame)?;
    if msg.delta {
        let base = delta_base.ok_or_else(|| FlError::InvalidConfig {
            reason: format!(
                "client {} sent a delta update but the uplink codec is lossless",
                msg.client_id
            ),
        })?;
        params.add_assign(base)?;
    }
    Ok(ClientUpdate {
        client_id: msg.client_id,
        params,
        num_samples: msg.num_samples,
    })
}

/// Spawns one client thread: a command loop that serves rounds, consults
/// the fault plan at each [`ServerMsg::StartRound`], and reports through
/// [`ClientReply`]s. A [`FaultKind::Crash`] exits the thread silently —
/// the server detects the death through its liveness check, exactly as it
/// would a real panic.
///
/// The thread decodes each broadcast frame and encodes its upload under
/// `uplink` — absolute parameters for a lossless codec, the delta against
/// the received global for a lossy one, compensated by the error-feedback
/// residual the [`FlClient`] carries across rounds.
fn spawn_client(
    mut client: FlClient,
    replies: Sender<ClientReply>,
    clock: Arc<dyn Clock>,
    plan: Arc<FaultPlan>,
    uplink: Codec,
) -> ClientHandle {
    let id = client.id();
    let (tx, rx): (Sender<ServerMsg>, Receiver<ServerMsg>) = channel();
    let join = thread::spawn(move || -> Result<FlClient> {
        let delta_mode = uplink.is_lossy();
        // A Delay fault holds the finished round here until the next
        // StartRound flushes it — by then it is stale and the server's tag
        // check discards it, like a real straggler's late upload.
        let mut held: Option<ClientMsg> = None;
        // Transient-fault bookkeeping: attempts already failed this round.
        let mut failed_round = 0usize;
        let mut failed_attempts = 0u32;
        while let Some(msg) = recv_blocking(&rx) {
            match msg {
                ServerMsg::Shutdown => break,
                ServerMsg::StartRound { round, frame } => {
                    if let Some(stale) = held.take() {
                        client
                            .telemetry()
                            .flight_record("send", "stale_update", round as u64);
                        let _ = replies.send(ClientReply::Update(stale));
                    }
                    let fault = plan.action(id, round);
                    if let Some(kind) = fault {
                        // The fault plan triggering is exactly the moment a
                        // postmortem wants on record: which kind, what round,
                        // on which client's thread.
                        client
                            .telemetry()
                            .flight_record("fault", fault_label(kind), round as u64);
                    }
                    match fault {
                        Some(FaultKind::Crash) => return Ok(client),
                        Some(FaultKind::Stall) => continue,
                        Some(FaultKind::Transient { failures }) => {
                            if failed_round != round {
                                failed_round = round;
                                failed_attempts = 0;
                            }
                            if failed_attempts < failures {
                                failed_attempts += 1;
                                client
                                    .telemetry()
                                    .flight_record("send", "transient", round as u64);
                                let _ = replies.send(ClientReply::Transient {
                                    client: id,
                                    round,
                                    cause: format!(
                                        "injected transient fault (attempt {failed_attempts})"
                                    ),
                                });
                                continue;
                            }
                            // Recovered: fall through and train normally.
                        }
                        _ => {}
                    }
                    // Decode the broadcast at the client's trust boundary: a
                    // frame this client cannot decode is a fatal condition
                    // for this client alone — report and exit, never panic.
                    let global = match decode_params(&frame) {
                        Ok(g) => g,
                        Err(e) => {
                            client
                                .telemetry()
                                .flight_record("wire", "broadcast_decode_failed", round as u64);
                            let _ = replies.send(ClientReply::Fatal {
                                client: id,
                                round,
                                cause: format!("broadcast frame failed to decode: {e}"),
                            });
                            return Ok(client);
                        }
                    };
                    let scope = MemoryScope::enter();
                    let t0 = clock.elapsed();
                    let _round_span = client.round_span(&format!("round[{round}]"));
                    match client.run_protocol(&global) {
                        Err(e) => {
                            // The reply carries the diagnosis; the thread
                            // exits like a crashed process, returning its
                            // state for post-mortem reassembly.
                            client
                                .telemetry()
                                .flight_record("send", "fatal", round as u64);
                            let _ = replies.send(ClientReply::Fatal {
                                client: id,
                                round,
                                cause: e.to_string(),
                            });
                            return Ok(client);
                        }
                        Ok((train_loss, update)) => {
                            let train_s = clock.elapsed().saturating_sub(t0).as_secs_f64();
                            let peak_mem_bytes = scope.peak_extra_bytes();
                            // Encode the upload: absolute parameters over a
                            // lossless uplink; otherwise the delta against
                            // the received global, error-feedback
                            // compensated. Encode failure is fatal for this
                            // client, reported like any training error.
                            let encoded = if delta_mode {
                                client.encode_delta(&update.params, &global, uplink)
                            } else {
                                encode_params(&update.params, uplink)
                            };
                            let upload = match encoded {
                                Ok(bytes) => bytes,
                                Err(e) => {
                                    client
                                        .telemetry()
                                        .flight_record("wire", "encode_failed", round as u64);
                                    let _ = replies.send(ClientReply::Fatal {
                                        client: id,
                                        round,
                                        cause: format!("update frame failed to encode: {e}"),
                                    });
                                    return Ok(client);
                                }
                            };
                            let msg = ClientMsg {
                                round,
                                client_id: id,
                                num_samples: update.num_samples,
                                frame: upload,
                                delta: delta_mode,
                                train_loss,
                                train_s,
                                peak_mem_bytes,
                            };
                            // The server may already have given up on this
                            // round (or shut down); a closed channel just
                            // ends us.
                            let (label, reply) = match fault {
                                Some(FaultKind::DropUpdate) => {
                                    ("dropped", ClientReply::Dropped { client: id, round })
                                }
                                Some(FaultKind::Delay) => {
                                    held = Some(msg);
                                    ("delayed", ClientReply::Delayed { client: id, round })
                                }
                                _ => ("update", ClientReply::Update(msg)),
                            };
                            client.telemetry().flight_record("send", label, round as u64);
                            let _ = replies.send(reply);
                        }
                    }
                }
            }
        }
        Ok(client)
    });
    ClientHandle {
        id,
        tx,
        join,
        departed: false,
    }
}

/// Stable flight-recorder label for an injected fault kind.
fn fault_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Crash => "crash",
        FaultKind::DropUpdate => "drop_update",
        FaultKind::Delay => "delay",
        FaultKind::Stall => "stall",
        FaultKind::Transient { .. } => "transient",
    }
}

/// Per-round transport metrics (deterministic counters; see DESIGN.md §10).
fn record_round_telemetry(
    telemetry: &Telemetry,
    participants: usize,
    dropped: usize,
    retried: usize,
    stale: usize,
) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.counter_add("fl.transport.rounds", 1);
    telemetry.counter_add("fl.transport.updates", participants as u64);
    telemetry.counter_add("fl.transport.clients_dropped", dropped as u64);
    telemetry.counter_add("fl.transport.clients_retried", retried as u64);
    telemetry.counter_add("fl.transport.stale_updates", stale as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;
    use crate::FlConfig;
    use dinar_data::Dataset;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::optim::Sgd;
    use dinar_tensor::{Rng, Tensor};

    fn blob_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from(seed);
        let mut features = Tensor::zeros(&[n, 2]);
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let c = if class == 0 { -2.0 } else { 2.0 };
            features.set(&[i, 0], rng.normal_with(c, 0.6)).unwrap();
            features.set(&[i, 1], rng.normal_with(c, 0.6)).unwrap();
            labels.push(class);
        }
        Dataset::new(features, labels, &[2], 2).unwrap()
    }

    fn build_system() -> FlSystem {
        let data = blob_dataset(90, 5);
        let mut rng = Rng::seed_from(9);
        let shards = dinar_data::partition::partition_dataset(
            &data,
            3,
            dinar_data::partition::Distribution::Iid,
            &mut rng,
        )
        .unwrap();
        FlSystem::builder(FlConfig {
            local_epochs: 2,
            batch_size: 16,
            seed: 3,
        })
        .clients_from_shards(
            shards,
            |rng| models::mlp(&[2, 8, 2], Activation::ReLU, rng),
            |_| Box::new(Sgd::new(0.1)),
        )
        .unwrap()
        .build()
        .unwrap()
    }

    fn threaded(system: FlSystem, rounds: usize, policy: RoundPolicy) -> Result<ResilientRun> {
        run_threaded_wire(
            system,
            rounds,
            Arc::new(WallClock::new()),
            policy,
            WireConfig::lossless(),
        )
    }

    #[test]
    fn threaded_matches_sequential_exactly() {
        let mut sequential = build_system();
        sequential.run(4).unwrap();

        let run = threaded(build_system(), 4, RoundPolicy::strict()).unwrap();
        assert_eq!(run.reports.len(), 4);
        let diff = sequential
            .global_params()
            .max_abs_diff(run.system.global_params())
            .unwrap();
        assert!(diff < 1e-7, "threaded diverged from sequential by {diff}");
    }

    #[test]
    fn threaded_reports_progress_and_preserves_clients() {
        let ResilientRun { system, reports, .. } =
            threaded(build_system(), 3, RoundPolicy::strict()).unwrap();
        assert_eq!(system.clients().len(), 3);
        assert_eq!(system.server().rounds_completed(), 3);
        assert_eq!(reports.last().unwrap().round, 3);
        // Client ids intact and ordered after the round trip.
        let ids: Vec<usize> = system.clients().iter().map(FlClient::id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Learning actually happened.
        assert!(reports[2].mean_train_loss < reports[0].mean_train_loss);
    }

    #[test]
    fn manual_clock_yields_deterministic_cost_timings() {
        let run = run_threaded_wire(
            build_system(),
            2,
            Arc::new(crate::clock::ManualClock::new()),
            RoundPolicy::strict(),
            WireConfig::lossless(),
        )
        .unwrap();
        // The clock never advances, so every timing is exactly zero — the
        // replay-determinism property L002 exists to protect.
        for r in &run.reports {
            assert_eq!(r.cost.client_train_s, 0.0);
            assert_eq!(r.cost.server_agg_s, 0.0);
        }
    }

    #[test]
    fn threaded_then_sequential_continues_seamlessly() {
        let mut system = threaded(build_system(), 2, RoundPolicy::strict()).unwrap().system;
        let report = system.run_round().unwrap();
        assert_eq!(report.round, 3);
    }

    #[test]
    fn threaded_reports_real_per_client_peak_memory() {
        let run = threaded(build_system(), 1, RoundPolicy::strict()).unwrap();
        // Training allocates activation and gradient tensors; the per-thread
        // ledger must observe them (the old transport hard-coded 0 here).
        assert!(
            run.reports[0].cost.client_peak_mem_bytes > 0,
            "per-client peak memory not measured"
        );
    }

    #[test]
    fn healthy_resilient_run_reports_no_faults() {
        let run = threaded(build_system(), 2, RoundPolicy::strict()).unwrap();
        assert_eq!(run.fault_stats.len(), 2);
        for s in &run.fault_stats {
            assert_eq!(s.participants, 3);
            assert_eq!(s.clients_dropped, 0);
            assert_eq!(s.clients_retried, 0);
            assert_eq!(s.stale_discarded, 0);
            assert!(!s.deadline_expired);
        }
    }

    #[test]
    fn unmeetable_quorum_is_rejected_upfront() {
        let policy = RoundPolicy::with_quorum(crate::fault::Quorum::AtLeast(7), None);
        let err = threaded(build_system(), 1, policy).unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn stall_plan_without_deadline_is_rejected_upfront() {
        let policy = RoundPolicy::strict().with_faults(FaultPlan::new().stall(0, 1));
        let err = threaded(build_system(), 1, policy).unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }), "{err}");
    }
}
