//! Mid-round resume determinism: a run killed after client *k* of a
//! round, checkpointed, and resumed into a freshly rebuilt system must
//! produce a final global model bit-identical to the uninterrupted run —
//! at every worker-pool width, because the resume image carries exact RNG
//! counter state, optimizer state, and the partial round's updates. The
//! threaded wire engine resumes the same way between rounds, under every
//! uplink codec, because the image also carries each client's
//! error-feedback residual.
//!
//! These tests also run under `--features sanitize`.

use dinar_fl::ckpt::{decode_resume, encode_resume};
use dinar_fl::clock::ManualClock;
use dinar_fl::{run_threaded_wire, FlConfig, FlSystem, RoundPolicy, WireConfig};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::Adam;
use dinar_telemetry::Telemetry;
use dinar_tensor::wire::Codec;
use dinar_tensor::{par, Rng, Tensor};
use std::sync::{Arc, Mutex};

/// Serializes mutations of the process-global pool width across tests.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 4];

/// Runs `f` once per width in [`WIDTHS`] and returns the results in order,
/// restoring the default width afterwards.
fn per_width<T>(f: impl Fn() -> T) -> Vec<T> {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let results = WIDTHS
        .iter()
        .map(|&w| {
            par::set_threads(w);
            f()
        })
        .collect();
    par::reset_threads();
    results
}

fn build_system() -> FlSystem {
    let data = {
        let mut rng = Rng::seed_from(5);
        let mut features = Tensor::zeros(&[90, 2]);
        let mut labels = Vec::new();
        for i in 0..90 {
            let class = i % 2;
            let c = if class == 0 { -2.0 } else { 2.0 };
            features.set(&[i, 0], rng.normal_with(c, 0.6)).expect("set");
            features.set(&[i, 1], rng.normal_with(c, 0.6)).expect("set");
            labels.push(class);
        }
        dinar_data::Dataset::new(features, labels, &[2], 2).expect("dataset")
    };
    let mut rng = Rng::seed_from(9);
    let shards = dinar_data::partition::partition_dataset(
        &data,
        3,
        dinar_data::partition::Distribution::Iid,
        &mut rng,
    )
    .expect("partition");
    FlSystem::builder(FlConfig {
        local_epochs: 2,
        batch_size: 16,
        seed: 3,
    })
    .clients_from_shards(
        shards,
        |rng| models::mlp(&[2, 8, 2], Activation::ReLU, rng),
        // Adam carries per-tensor moments and a step counter, so any state
        // the resume image drops would surface as divergent bits.
        |_| Box::new(Adam::new(0.05)),
    )
    .expect("clients")
    .build()
    .expect("system")
}

fn global_bits(system: &FlSystem) -> Vec<u32> {
    system
        .global_params()
        .to_flat()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// The uninterrupted reference: `rounds` full rounds.
fn straight_run(rounds: usize) -> Vec<u32> {
    let mut system = build_system();
    system.run(rounds).expect("straight run");
    global_bits(&system)
}

/// Kill-and-resume: one warm-up round, then the next round is stopped
/// after `k` clients, the image crosses bytes (the simulated kill), a
/// fresh system restores it and finishes the round plus one more.
fn resumed_run(k: usize, rounds_after: usize) -> Vec<u32> {
    let mut first = build_system();
    first.run(1).expect("warm-up round");
    first.begin_round_partial(k).expect("partial round");
    let bytes = encode_resume(&first.checkpoint()).expect("encode");
    drop(first); // the "killed" process

    let image = decode_resume(&bytes).expect("decode");
    let mut second = build_system();
    second.restore(image).expect("restore");
    assert!(second.has_pending_round());
    second.finish_round().expect("finish interrupted round");
    second.run(rounds_after).expect("post-resume rounds");
    global_bits(&second)
}

/// Killing after any client of the round changes nothing: the resumed
/// final model is bit-identical to the uninterrupted 3-round run, at
/// every pool width.
#[test]
fn resumed_run_is_bit_identical_at_every_width_and_kill_point() {
    let reference = per_width(|| straight_run(3));
    for k in 1..=3 {
        let resumed = per_width(|| resumed_run(k, 1));
        assert_eq!(
            reference, resumed,
            "kill after client {k} diverged from the uninterrupted run"
        );
    }
}

/// The widths also agree with each other — the checkpoint plane preserves
/// the repo-wide pool-width bit-identity contract.
#[test]
fn resume_bits_agree_across_widths() {
    let runs = per_width(|| resumed_run(2, 1));
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "pool widths disagree after resume"
    );
}

/// A checkpoint taken *between* rounds (no pending partial round) resumes
/// into the same bits too.
#[test]
fn between_round_checkpoints_resume_bit_identically() {
    let reference = straight_run(3);
    let mut first = build_system();
    first.run(2).expect("two rounds");
    let bytes = encode_resume(&first.checkpoint()).expect("encode");
    drop(first);

    let mut second = build_system();
    second.restore(decode_resume(&bytes).expect("decode")).expect("restore");
    assert!(!second.has_pending_round());
    second.run(1).expect("final round");
    assert_eq!(reference, global_bits(&second));
}

/// A resumed `finish_round` closes its round like any other: the
/// `round[N]` and `aggregate` spans, the `fl.rounds`/`fl.updates`
/// counters, the bridged kernel delta, and the measured peak memory of the
/// clients it trained.
#[test]
fn finished_rounds_report_like_full_rounds() {
    let mut first = build_system();
    first.run(1).expect("warm-up round");
    first.begin_round_partial(1).expect("partial round");
    let bytes = encode_resume(&first.checkpoint()).expect("encode");
    drop(first);

    let telemetry = Telemetry::new();
    let mut second = build_system();
    second.set_telemetry(telemetry.clone());
    second.restore(decode_resume(&bytes).expect("decode")).expect("restore");
    let report = second.finish_round().expect("finish interrupted round");
    assert_eq!(report.round, 2);
    assert!(
        report.cost.client_peak_mem_bytes > 0,
        "finish_round must measure the peak memory of the clients it trained"
    );
    let paths: Vec<String> = telemetry.spans().into_iter().map(|s| s.path).collect();
    for expected in ["round[2]", "round[2]/aggregate", "round[2]/client[2]"] {
        assert!(paths.iter().any(|p| p == expected), "no {expected} span in {paths:?}");
    }
    assert_eq!(telemetry.counter_value("fl.rounds"), 1);
    assert_eq!(telemetry.counter_value("fl.updates"), 3);
    assert!(telemetry.counter_value("tensor.matmul.flops") > 0, "no kernel delta recorded");
}

/// `rounds` threaded rounds with every update crossing the wire under
/// `uplink`, on a manual clock.
fn threaded(system: FlSystem, rounds: usize, uplink: Codec) -> FlSystem {
    run_threaded_wire(
        system,
        rounds,
        Arc::new(ManualClock::new()),
        RoundPolicy::strict(),
        WireConfig::lossless().with_uplink(uplink),
    )
    .expect("threaded run")
    .system
}

/// The threaded resume gate: for every uplink codec and pool width, two
/// threaded runs of two rounds — back to back, or across a between-rounds
/// resume image and a freshly rebuilt system — end bit-identical to one
/// uninterrupted four-round threaded run. Lossy codecs carry an
/// error-feedback residual from round to round, so this holds only if the
/// residual lives in the client state and in the image.
#[test]
fn threaded_runs_split_and_resume_bit_identically_for_every_codec() {
    for codec in [Codec::F32, Codec::QuantI8, Codec::Sign1] {
        let straight = per_width(|| global_bits(&threaded(build_system(), 4, codec)));
        let split = per_width(|| {
            global_bits(&threaded(threaded(build_system(), 2, codec), 2, codec))
        });
        let resumed = per_width(|| {
            let first = threaded(build_system(), 2, codec);
            let bytes = encode_resume(&first.checkpoint()).expect("encode");
            drop(first); // the "killed" process
            let mut second = build_system();
            second.restore(decode_resume(&bytes).expect("decode")).expect("restore");
            global_bits(&threaded(second, 2, codec))
        });
        assert_eq!(straight, split, "{codec:?}: split threaded run diverged");
        assert_eq!(straight, resumed, "{codec:?}: resumed threaded run diverged");
    }
}
