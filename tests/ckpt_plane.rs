//! The checkpoint plane, end to end: `DNCK` model/resume round-trips
//! through real files, corrupted images, and seeded bit-flip fuzz —
//! mirroring `tests/wire_plane.rs` for the at-rest format.
//!
//! These tests also run under `--features sanitize`: the checkpoint codec
//! moves raw bit patterns without arithmetic, so even non-finite payloads
//! round-trip without tripping the kernel sanitizers.

use dinar_fl::ckpt::{decode_resume, encode_resume, load_resume, save_resume};
use dinar_fl::clock::ManualClock;
use dinar_fl::{run_threaded_wire, FlConfig, FlSystem, RoundPolicy, WireConfig};
use dinar_nn::ckpt::{self, CkptKind, FORMAT_VERSION, HEADER_LEN, MAGIC};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::Adam;
use dinar_nn::serve::ServingModel;
use dinar_nn::{io, NnError};
use dinar_tensor::wire::Codec;
use dinar_tensor::{Dtype, Rng, Tensor};
use std::path::PathBuf;
use std::sync::Arc;

const ALL_DTYPES: [Dtype; 3] = [Dtype::F32, Dtype::F16, Dtype::I8];

fn test_params() -> dinar_nn::ModelParams {
    let mut rng = Rng::seed_from(31);
    models::mlp(&[6, 5, 4], Activation::ReLU, &mut rng)
        .expect("model")
        .params()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dinar-ckpt-plane-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn small_system(seed: u64) -> FlSystem {
    let data = {
        let mut rng = Rng::seed_from(seed);
        let mut features = Tensor::zeros(&[60, 2]);
        let mut labels = Vec::new();
        for i in 0..60 {
            let class = i % 2;
            let c = if class == 0 { -2.0 } else { 2.0 };
            features.set(&[i, 0], rng.normal_with(c, 0.6)).expect("set");
            features.set(&[i, 1], rng.normal_with(c, 0.6)).expect("set");
            labels.push(class);
        }
        dinar_data::Dataset::new(features, labels, &[2], 2).expect("dataset")
    };
    let mut rng = Rng::seed_from(seed + 1);
    let shards = dinar_data::partition::partition_dataset(
        &data,
        3,
        dinar_data::partition::Distribution::Iid,
        &mut rng,
    )
    .expect("partition");
    FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 16,
        seed: seed + 2,
    })
    .clients_from_shards(
        shards,
        |rng| models::mlp(&[2, 8, 2], Activation::ReLU, rng),
        |_| Box::new(Adam::new(0.05)),
    )
    .expect("clients")
    .build()
    .expect("system")
}

/// The file path round-trips at every storage width: f32 bit-identically,
/// f16/i8 shape-identically (they are lossy by design).
#[test]
fn model_checkpoint_files_roundtrip_at_every_dtype() {
    let params = test_params();
    for dtype in ALL_DTYPES {
        let path = temp_path(&format!("model-{dtype:?}.dnck"));
        ckpt::save(&params, dtype, &path).expect("save");
        let back = ckpt::load(&path).expect("load");
        assert_eq!(back.layers.len(), params.layers.len(), "{dtype:?}");
        for (a, b) in params.layers.iter().zip(&back.layers) {
            for (x, y) in a.tensors.iter().zip(&b.tensors) {
                assert_eq!(x.shape(), y.shape(), "{dtype:?}");
                if dtype == Dtype::F32 {
                    let xb: Vec<u32> = x.as_slice().iter().map(|v| v.to_bits()).collect();
                    let yb: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(xb, yb);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `io::save`/`io::load` are the same plane: bytes on disk start with the
/// `DNCK` magic and decode with `ckpt::load`.
#[test]
fn io_facade_writes_dnck_files() {
    let params = test_params();
    let path = temp_path("io-facade.dnck");
    io::save(&params, &path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    assert_eq!(&bytes[..4], &MAGIC);
    let back = ckpt::load(&path).expect("load via ckpt");
    assert_eq!(back.layers.len(), params.layers.len());
    std::fs::remove_file(&path).ok();
}

/// Every strict prefix of a model checkpoint errors: no partial decode
/// passes for a truncated file.
#[test]
fn truncated_model_checkpoints_error_at_every_cut() {
    let params = test_params();
    for dtype in ALL_DTYPES {
        let bytes = ckpt::encode_checkpoint(&params, dtype).expect("encode");
        for cut in 0..bytes.len() {
            assert!(
                ckpt::decode_checkpoint(&bytes[..cut]).is_err(),
                "{dtype:?}: prefix of {cut} bytes decoded"
            );
        }
    }
}

/// Header corruption surfaces as typed errors: wrong magic, unsupported
/// version, wrong image kind, unknown dtype tag.
#[test]
fn header_corruption_is_typed() {
    let params = test_params();
    let bytes = ckpt::encode_checkpoint(&params, Dtype::F32).expect("encode");

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(ckpt::decode_checkpoint(&bad_magic).is_err(), "bad magic");

    let mut bad_version = bytes.clone();
    bad_version[4] = (FORMAT_VERSION + 1) as u8;
    assert!(ckpt::decode_checkpoint(&bad_version).is_err(), "bad version");

    let mut bad_kind = bytes.clone();
    bad_kind[6] = CkptKind::FlResume.tag();
    assert!(
        ckpt::decode_checkpoint(&bad_kind).is_err(),
        "a resume-tagged image must not load as a model"
    );

    let mut bad_dtype = bytes.clone();
    bad_dtype[HEADER_LEN + 8] = 0x7F; // first tensor's dtype tag
    assert!(ckpt::decode_checkpoint(&bad_dtype).is_err(), "bad dtype tag");

    let mut trailing = bytes;
    trailing.push(0);
    assert!(ckpt::decode_checkpoint(&trailing).is_err(), "trailing byte");
}

/// Seeded fuzz over corrupted model images at every dtype: random bit
/// flips must return a typed error or decode garbage — never panic,
/// allocate absurdly, or loop.
#[test]
fn corrupted_model_checkpoints_never_panic() {
    let params = test_params();
    let mut rng = Rng::seed_from(99);
    for dtype in ALL_DTYPES {
        let bytes = ckpt::encode_checkpoint(&params, dtype).expect("encode");
        for trial in 0..200u64 {
            let mut corrupt = bytes.clone();
            let flips = 1 + (trial % 4) as usize;
            for f in 0..flips {
                let r = rng.next_u64()
                    ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(f as u64);
                let idx = (r as usize) % corrupt.len();
                corrupt[idx] ^= 1u8 << (r >> 32 & 7);
            }
            let _ = ckpt::decode_checkpoint(&corrupt); // Ok(garbage) or Err
        }
    }
}

/// The FL resume image survives the same treatment: file round-trip,
/// every-prefix truncation, and seeded bit-flip fuzz — both a plain
/// mid-round image and one whose clients carry lossy-uplink error-feedback
/// residuals from a threaded `quant_i8` round.
#[test]
fn resume_images_roundtrip_and_survive_corruption() {
    let mut system = small_system(7);
    system.run(1).expect("round");
    system.begin_round_partial(2).expect("partial");
    let mut lossy = run_threaded_wire(
        small_system(7),
        1,
        Arc::new(ManualClock::new()),
        RoundPolicy::strict(),
        WireConfig::lossless().with_uplink(Codec::QuantI8),
    )
    .expect("threaded quant_i8 round")
    .system;
    lossy.begin_round_partial(2).expect("partial");
    let residual_image = lossy.checkpoint();
    assert!(residual_image.clients.iter().all(|c| c.residual.is_some()));

    for image in [system.checkpoint(), residual_image] {
        let bytes = encode_resume(&image).expect("encode");

        let back = decode_resume(&bytes).expect("decode");
        assert_eq!(back.rounds_run, image.rounds_run);
        assert_eq!(back.clients.len(), image.clients.len());
        assert!(back.pending.is_some());
        for (b, i) in back.clients.iter().zip(&image.clients) {
            assert_eq!(b.residual, i.residual);
        }

        let path = temp_path("resume.dnck");
        save_resume(&image, &path).expect("save");
        let from_file = load_resume(&path).expect("load");
        assert_eq!(from_file.rounds_run, image.rounds_run);
        std::fs::remove_file(&path).ok();

        for cut in 0..bytes.len() {
            assert!(
                decode_resume(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut rng = Rng::seed_from(131);
        for trial in 0..300u64 {
            let mut corrupt = bytes.clone();
            let flips = 1 + (trial % 4) as usize;
            for f in 0..flips {
                let r = rng.next_u64() ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(f as u64);
                let idx = (r as usize) % corrupt.len();
                corrupt[idx] ^= 1u8 << (r >> 32 & 7);
            }
            let _ = decode_resume(&corrupt); // Ok(garbage) or Err — never a panic
        }
    }
}

/// A model image does not load as a resume image, and vice versa — the
/// kind byte keeps the two planes apart.
#[test]
fn image_kinds_do_not_cross_load() {
    let params = test_params();
    let model_bytes = ckpt::encode_checkpoint(&params, Dtype::F32).expect("encode");
    assert!(decode_resume(&model_bytes).is_err());

    let mut system = small_system(17);
    system.run(1).expect("round");
    let resume_bytes = encode_resume(&system.checkpoint()).expect("encode");
    assert!(ckpt::decode_checkpoint(&resume_bytes).is_err());
}

/// The serving loader rejects corrupt files with typed errors, and a
/// missing file is an error, not a panic.
#[test]
fn serving_loader_rejects_corrupt_files() {
    let params = test_params();
    let path = temp_path("serve-corrupt.dnck");
    let bytes = ckpt::encode_checkpoint(&params, Dtype::I8).expect("encode");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write truncated");
    assert!(matches!(
        ServingModel::load(&path),
        Err(NnError::Wire(_) | NnError::InvalidConfig { .. })
    ));
    std::fs::remove_file(&path).ok();
    assert!(ServingModel::load(temp_path("does-not-exist.dnck")).is_err());
}
