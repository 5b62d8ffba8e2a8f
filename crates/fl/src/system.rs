//! Round orchestration, system builder and cost accounting.
//!
//! Both engines finish a round through one close-out, `close_round`: the
//! in-process driver here ([`FlSystem::run_round`], and the split
//! [`FlSystem::begin_round_partial`] / [`FlSystem::finish_round`]) and the
//! threaded one in [`crate::transport`].

use crate::ckpt::{FlCheckpoint, PendingRound};
use crate::clock::{Clock, WallClock};
use crate::{ClientMiddleware, ClientUpdate, FlClient, FlError, FlServer, Result, ServerMiddleware};
use dinar_data::Dataset;
use dinar_metrics::cost::{measure, CostSample};
use dinar_nn::optim::Optimizer;
use dinar_nn::{Model, ModelParams};
use dinar_telemetry::{bridge, Telemetry};
use dinar_tensor::{par, profile, Rng};

/// One client's finished round, as the close-out folds it.
#[derive(Debug)]
pub(crate) struct TrainedClient {
    /// The client's mean training loss this round.
    pub(crate) loss: f32,
    /// Seconds the client spent on the round.
    pub(crate) train_s: f64,
    /// Peak extra tensor bytes the client allocated during the round.
    pub(crate) peak_mem: u64,
    /// The client's upload.
    pub(crate) update: ClientUpdate,
}

/// Runs one round of local training for each client on the [`par`] pool
/// (clients are data-independent within a round) and returns the outcomes
/// **in client order** — the first failure in client order wins — so the
/// close-out's folds and the aggregation order are identical to a
/// sequential loop. Each client's [`measure`] runs entirely on its worker
/// thread, so the per-thread memory scope attributes only that client's
/// allocations. Tensor kernels invoked inside a worker run serially (nested
/// parallel regions execute inline), preventing clients × threads
/// oversubscription.
///
/// `span_parent` seeds each client's span lineage (worker threads start
/// with an empty span stack); pass the enclosing round span's path.
fn train(
    clients: &mut [FlClient],
    global: &ModelParams,
    span_parent: &str,
) -> Result<Vec<TrainedClient>> {
    par::map_items_mut(clients, |_, client| {
        let _client_span = client.round_span(span_parent);
        measure(|| client.run_protocol(global))
    })
    .into_iter()
    .map(|(result, elapsed, peak_mem)| {
        let (loss, update) = result?;
        Ok(TrainedClient {
            loss,
            train_s: elapsed.as_secs_f64(),
            peak_mem,
            update,
        })
    })
    .collect()
}

/// The round close-out shared by both engines: folds loss, train time and
/// peak memory over `trained` in the given (client) order, FedAvg-aggregates
/// the updates under an `aggregate` span timed on `clock`, and reports the
/// round as number `round`. Counters stay with the calling engine.
///
/// # Errors
///
/// Propagates aggregation errors.
pub(crate) fn close_round(
    server: &mut FlServer,
    telemetry: &Telemetry,
    clock: &dyn Clock,
    round: usize,
    trained: Vec<TrainedClient>,
) -> Result<RoundReport> {
    let participants = trained.len().max(1) as f64;
    let mut loss_sum = 0.0f64;
    let mut train_s_sum = 0.0f64;
    let mut peak_mem = 0u64;
    let mut updates = Vec::with_capacity(trained.len());
    for client in trained {
        loss_sum += client.loss as f64;
        train_s_sum += client.train_s;
        peak_mem = peak_mem.max(client.peak_mem);
        updates.push(client.update);
    }
    let server_agg_s = {
        let _agg_span = telemetry.span("aggregate");
        let t0 = clock.elapsed();
        server.aggregate(&updates)?;
        clock.elapsed().saturating_sub(t0).as_secs_f64()
    };
    Ok(RoundReport {
        round,
        mean_train_loss: (loss_sum / participants) as f32,
        cost: CostSample {
            client_train_s: train_s_sum / participants,
            server_agg_s,
            client_peak_mem_bytes: peak_mem,
        },
    })
}

/// Static configuration of an FL system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlConfig {
    /// Local epochs per client per round (the paper uses 5, or 10 for
    /// Purchase100).
    pub local_epochs: usize,
    /// Mini-batch size (the paper uses 64).
    pub batch_size: usize,
    /// Master seed; every client derives an independent stream from it.
    pub seed: u64,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            local_epochs: 5,
            batch_size: 64,
            seed: 0,
        }
    }
}

/// Per-round measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundReport {
    /// Round number (1-based).
    pub round: usize,
    /// Mean training loss across clients.
    pub mean_train_loss: f32,
    /// Cost sample for this round: mean client training time, server
    /// aggregation time, max client peak memory.
    pub cost: CostSample,
}

/// A complete federated learning system: one server plus its clients.
#[derive(Debug)]
pub struct FlSystem {
    server: FlServer,
    clients: Vec<FlClient>,
    rounds_run: usize,
    /// The finished portion of an interrupted round (see
    /// [`FlSystem::begin_round_partial`]); `None` between rounds.
    pending: Option<PendingRound>,
    telemetry: Telemetry,
}

impl FlSystem {
    /// Starts building a system with the given configuration.
    pub fn builder(config: FlConfig) -> FlSystemBuilder {
        FlSystemBuilder {
            config,
            clients: Vec::new(),
            server_middleware: Vec::new(),
            initial: None,
        }
    }

    /// The server.
    pub fn server(&self) -> &FlServer {
        &self.server
    }

    /// Mutable access to the server (to attach middleware after build).
    pub fn server_mut(&mut self) -> &mut FlServer {
        &mut self.server
    }

    /// The clients.
    pub fn clients(&self) -> &[FlClient] {
        &self.clients
    }

    /// Mutable access to the clients (to attach middleware after build).
    pub fn clients_mut(&mut self) -> &mut [FlClient] {
        &mut self.clients
    }

    /// Current global model parameters.
    pub fn global_params(&self) -> &ModelParams {
        self.server.global_params()
    }

    /// Decomposes the system into its server, clients and completed-round
    /// count (used by the threaded transport, which needs to move clients
    /// into their own threads). The system-level telemetry handle is not
    /// part of the tuple — callers that need it should clone it via
    /// [`FlSystem::telemetry`] first (the threaded transport does, and
    /// re-attaches it on reassembly); each client keeps carrying its own
    /// handle across the move. Any pending partial round is dropped.
    pub fn into_parts(self) -> (FlServer, Vec<FlClient>, usize) {
        (self.server, self.clients, self.rounds_run)
    }

    /// Reassembles a system from parts produced by [`FlSystem::into_parts`].
    /// The reassembled system starts with telemetry disabled; call
    /// [`FlSystem::set_telemetry`] to re-attach a sink.
    pub fn from_parts(server: FlServer, clients: Vec<FlClient>, rounds_run: usize) -> Self {
        FlSystem {
            server,
            clients,
            rounds_run,
            pending: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink to the system, **every client** (and
    /// through them, every client model, optimizer and middleware stack)
    /// and the server's middleware. Each subsequent round emits a
    /// `round[N]` span with nested `client[i]` (download / train / upload /
    /// middleware / per-layer) and `aggregate` children, plus the bridged
    /// tensor kernel counters; defenses on either side charge the sink's
    /// privacy ledger. See `dinar-telemetry` for the export side.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for client in &mut self.clients {
            client.set_telemetry(telemetry.clone()); // lint: allow(L009, telemetry handle, not params)
        }
        self.server.set_telemetry(telemetry.clone()); // lint: allow(L009, telemetry handle, not params)
        self.telemetry = telemetry;
    }

    /// The system's telemetry handle (disabled unless
    /// [`set_telemetry`](FlSystem::set_telemetry) was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Returns an error if a partial round is pending — the caller must
    /// [`finish_round`](FlSystem::finish_round) before starting a new one.
    fn check_no_pending(&self) -> Result<()> {
        if self.pending.is_some() {
            return Err(FlError::InvalidConfig {
                reason: "a partial round is pending; call finish_round first".into(),
            });
        }
        Ok(())
    }

    /// Runs one FL round: every client downloads the global model, trains
    /// locally and uploads; the server aggregates.
    ///
    /// # Errors
    ///
    /// Propagates client training, middleware and aggregation errors;
    /// returns [`FlError::InvalidConfig`] if a partial round is pending.
    pub fn run_round(&mut self) -> Result<RoundReport> {
        self.check_no_pending()?;
        self.complete_round(Vec::new())
    }

    /// Trains the clients after the already-`trained` prefix under a
    /// `round[N]` span, then runs the shared [`close_round`] and records the
    /// round's metrics.
    fn complete_round(&mut self, mut trained: Vec<TrainedClient>) -> Result<RoundReport> {
        let kernels_before = profile::snapshot();
        let round = self.rounds_run + 1;
        let round_span = self.telemetry.span(&format!("round[{round}]"));
        let global = self.server.global_params().share();
        let done = trained.len();
        trained.extend(train(&mut self.clients[done..], &global, round_span.path())?);
        let updates = trained.len();
        let report = close_round(
            &mut self.server,
            &self.telemetry,
            &WallClock::new(),
            round,
            trained,
        )?;
        self.rounds_run = round;
        drop(round_span);
        self.record_round_metrics(&kernels_before, updates, report.cost.client_peak_mem_bytes);
        Ok(report)
    }

    /// Post-round metrics: deterministic round/update counters, the bridged
    /// tensor kernel delta for the round, and the volatile alloc/peak-memory
    /// gauges.
    fn record_round_metrics(
        &self,
        kernels_before: &profile::KernelSnapshot,
        updates: usize,
        peak_mem: u64,
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.counter_add("fl.rounds", 1);
        self.telemetry.counter_add("fl.updates", updates as u64);
        bridge::record_kernel_delta(
            &self.telemetry,
            &profile::snapshot().delta_since(kernels_before),
        );
        bridge::record_alloc_gauges(&self.telemetry);
        self.telemetry
            .gauge_max_volatile("fl.client_peak_mem_bytes", peak_mem as f64);
    }

    /// Runs `rounds` FL rounds and returns the per-round reports.
    ///
    /// # Errors
    ///
    /// Propagates [`FlSystem::run_round`] errors.
    pub fn run(&mut self, rounds: usize) -> Result<Vec<RoundReport>> {
        (0..rounds).map(|_| self.run_round()).collect()
    }

    /// Whether an interrupted round is pending (some clients trained, no
    /// aggregation yet).
    pub fn has_pending_round(&self) -> bool {
        self.pending.is_some()
    }

    /// Trains clients `0..stop_after` of the next round and parks their
    /// `(loss, update)` pairs instead of aggregating — modelling a run
    /// killed after `stop_after` clients. Take a
    /// [`checkpoint`](FlSystem::checkpoint) afterwards to persist the
    /// partial round, and call [`finish_round`](FlSystem::finish_round)
    /// (possibly after a [`restore`](FlSystem::restore) in a fresh
    /// process) to complete it.
    ///
    /// Clients are data-independent within a round and the engine
    /// aggregates in client order, so splitting a round this way is
    /// bit-identical to [`run_round`](FlSystem::run_round) at any
    /// thread-pool width.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if a partial round is already
    /// pending or `stop_after` is not in `1..=clients`; propagates client
    /// training errors.
    pub fn begin_round_partial(&mut self, stop_after: usize) -> Result<()> {
        self.check_no_pending()?;
        if stop_after == 0 || stop_after > self.clients.len() {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "cannot stop after {stop_after} of {} clients",
                    self.clients.len()
                ),
            });
        }
        let round_span = self.telemetry.span(&format!("round[{}]", self.rounds_run + 1));
        let global = self.server.global_params().share();
        let trained = train(&mut self.clients[..stop_after], &global, round_span.path())?;
        self.pending = Some(PendingRound {
            completed: trained.into_iter().map(|t| (t.loss, t.update)).collect(),
        });
        Ok(())
    }

    /// Completes a pending partial round: trains the remaining clients
    /// against the same global snapshot, then closes the round exactly like
    /// [`run_round`](FlSystem::run_round) — same spans, counters and
    /// report. The resulting global model is bit-identical to an
    /// uninterrupted round.
    ///
    /// The report's train time and peak memory cover only the clients
    /// trained in this call (the parked portion's measurements belong to
    /// the interrupted process); its train time is still averaged over all
    /// clients.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if no partial round is pending;
    /// propagates training and aggregation errors.
    pub fn finish_round(&mut self) -> Result<RoundReport> {
        let Some(pending) = self.pending.take() else {
            return Err(FlError::InvalidConfig {
                reason: "no partial round is pending; call begin_round_partial first".into(),
            });
        };
        let parked = pending
            .completed
            .into_iter()
            .map(|(loss, update)| TrainedClient {
                loss,
                train_s: 0.0,
                peak_mem: 0,
                update,
            })
            .collect();
        self.complete_round(parked)
    }

    /// Captures a complete resume image of the system: global model,
    /// completed-round counter, every client's mutable state and any
    /// pending partial round. Persist it with [`crate::ckpt::save_resume`].
    pub fn checkpoint(&self) -> FlCheckpoint {
        FlCheckpoint {
            rounds_run: self.rounds_run,
            global: self.server.global_params().share(),
            clients: self.clients.iter().map(FlClient::export_state).collect(),
            // lint: allow(L009, PendingRound's derived Clone bumps COW refcounts, O(1) like share())
            pending: self.pending.clone(),
        }
    }

    /// Installs a resume image into this system. The system must have been
    /// rebuilt with the same builder inputs (shards, architecture,
    /// optimizer, middleware stack, seed); the image then overwrites all
    /// mutable state, making the resumed run bit-identical to one that was
    /// never interrupted.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] on a client-count mismatch and
    /// propagates per-client restore errors.
    pub fn restore(&mut self, ckpt: FlCheckpoint) -> Result<()> {
        if ckpt.clients.len() != self.clients.len() {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "resume image has {} client(s), system has {}",
                    ckpt.clients.len(),
                    self.clients.len()
                ),
            });
        }
        for (client, state) in self.clients.iter_mut().zip(ckpt.clients) {
            client.import_state(state)?;
        }
        self.server.restore_state(ckpt.global, ckpt.rounds_run);
        self.rounds_run = ckpt.rounds_run;
        self.pending = ckpt.pending;
        Ok(())
    }

    /// Pushes the final global model to every client (running their download
    /// middleware), so client models reflect the end-of-training state.
    ///
    /// # Errors
    ///
    /// Propagates middleware errors.
    pub fn sync_clients(&mut self) -> Result<()> {
        let global = self.server.global_params().share();
        let mut refs: Vec<&mut FlClient> = self.clients.iter_mut().collect();
        let results = par::map_items_mut(&mut refs, |_, client| client.receive_global(&global));
        results.into_iter().collect()
    }

    /// Mean accuracy of the clients' (personalized) models on a dataset —
    /// the paper's overall model utility metric (Appendix A).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn mean_client_accuracy(&mut self, dataset: &Dataset) -> Result<f32> {
        let n = self.clients.len().max(1);
        let mut refs: Vec<&mut FlClient> = self.clients.iter_mut().collect();
        let accuracies = par::map_items_mut(&mut refs, |_, client| client.evaluate(dataset));
        let mut sum = 0.0f64;
        for accuracy in accuracies {
            sum += accuracy? as f64;
        }
        Ok((sum / n as f64) as f32)
    }
}

/// Builder for [`FlSystem`].
#[derive(Debug)]
pub struct FlSystemBuilder {
    config: FlConfig,
    clients: Vec<FlClient>,
    server_middleware: Vec<Box<dyn ServerMiddleware>>,
    initial: Option<ModelParams>,
}

impl FlSystemBuilder {
    /// Creates one client per data shard.
    ///
    /// All clients start from the **same** initial parameters (drawn once
    /// from `model_fn`), matching the FL protocol where round 0 distributes
    /// a common global model. Each client gets an independent RNG stream and
    /// a fresh optimizer from `opt_fn`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for empty shards or model factory
    /// failures.
    pub fn clients_from_shards(
        mut self,
        shards: Vec<Dataset>,
        model_fn: impl Fn(&mut Rng) -> dinar_nn::Result<Model>,
        opt_fn: impl Fn(usize) -> Box<dyn Optimizer>,
    ) -> Result<Self> {
        let root = Rng::seed_from(self.config.seed);
        let mut init_rng = root.split(u64::MAX);
        let init_model = model_fn(&mut init_rng).map_err(FlError::from)?;
        let initial = init_model.params();
        let base_id = self.clients.len();
        for (offset, shard) in shards.into_iter().enumerate() {
            let id = base_id + offset;
            let mut client_rng = root.split(id as u64);
            let mut model = model_fn(&mut client_rng).map_err(FlError::from)?;
            model.set_params(&initial).map_err(FlError::from)?;
            let client = FlClient::new(
                id,
                model,
                opt_fn(id),
                shard,
                client_rng.split(0xC11E),
                self.config.local_epochs,
                self.config.batch_size,
            )?;
            self.clients.push(client);
        }
        self.initial = Some(initial);
        Ok(self)
    }

    /// Attaches middleware to every client, built per client id.
    pub fn with_client_middleware(
        mut self,
        factory: impl Fn(usize) -> Vec<Box<dyn ClientMiddleware>>,
    ) -> Self {
        for client in &mut self.clients {
            for mw in factory(client.id()) {
                client.push_middleware(mw);
            }
        }
        self
    }

    /// Attaches a server middleware.
    pub fn with_server_middleware(mut self, mw: Box<dyn ServerMiddleware>) -> Self {
        self.server_middleware.push(mw);
        self
    }

    /// Finalizes the system.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if no clients were added.
    pub fn build(self) -> Result<FlSystem> {
        let initial = self.initial.ok_or_else(|| FlError::InvalidConfig {
            reason: "no clients configured; call clients_from_shards first".into(),
        })?;
        if self.clients.is_empty() {
            return Err(FlError::InvalidConfig {
                reason: "system needs at least one client".into(),
            });
        }
        let mut server = FlServer::new(initial);
        for mw in self.server_middleware {
            server.push_middleware(mw);
        }
        Ok(FlSystem {
            server,
            clients: self.clients,
            rounds_run: 0,
            pending: None,
            telemetry: Telemetry::disabled(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_data::partition::{partition_dataset, Distribution};
    use dinar_data::Dataset;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::optim::Sgd;
    use dinar_tensor::Tensor;

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

    fn small_system(clients: usize) -> FlSystem {
        let data = blob_dataset(120, 5);
        let mut rng = Rng::seed_from(9);
        let shards = partition_dataset(&data, clients, Distribution::Iid, &mut rng).unwrap();
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

    #[test]
    fn clients_start_from_identical_models() {
        let system = small_system(3);
        let p0 = system.clients()[0].model().params();
        for c in &system.clients()[1..] {
            assert!(c.model().params().max_abs_diff(&p0).unwrap() < 1e-9);
        }
        assert!(system.global_params().max_abs_diff(&p0).unwrap() < 1e-9);
    }

    #[test]
    fn federated_training_converges_on_easy_task() {
        let mut system = small_system(3);
        let reports = system.run(12).unwrap();
        assert!(reports[11].mean_train_loss < reports[0].mean_train_loss * 0.5);
        system.sync_clients().unwrap();
        let test = blob_dataset(60, 77);
        assert!(system.mean_client_accuracy(&test).unwrap() > 0.9);
    }

    #[test]
    fn round_reports_count_and_cost() {
        let mut system = small_system(2);
        let reports = system.run(3).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].round, 3);
        assert!(reports.iter().all(|r| r.cost.client_train_s > 0.0));
        assert_eq!(system.server().rounds_completed(), 3);
    }

    #[test]
    fn build_without_clients_fails() {
        assert!(matches!(
            FlSystem::builder(FlConfig::default()).build(),
            Err(FlError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn global_model_differs_from_any_single_client_after_round() {
        let mut system = small_system(3);
        system.run(1).unwrap();
        // The aggregate should be a mixture, not equal to one client's model
        // (clients trained on different shards).
        let global = system.global_params().clone();
        for c in system.clients() {
            assert!(c.model().params().max_abs_diff(&global).unwrap() > 1e-6);
        }
    }
}
