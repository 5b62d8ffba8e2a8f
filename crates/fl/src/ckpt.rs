//! Mid-round resume images: checkpoint a whole FL system — even between
//! two clients of an unfinished round — and restart it bit-identically.
//!
//! A resume image is a `DNCK` file ([`dinar_nn::ckpt`]) with header kind
//! `fl-resume`. It captures everything mutable in the engine:
//!
//! * the server's global model and completed-round counter,
//! * every client's model parameters, RNG stream position
//!   ([`dinar_tensor::RngState`]), optimizer state
//!   ([`dinar_nn::optim::OptimState`]), middleware state
//!   ([`MiddlewareState`]) — DINAR's stored private layers included — and
//!   the lossy-uplink error-feedback residual,
//! * an optional partial round: the `(loss, update)` pairs of the clients
//!   that already finished this round, in client order.
//!
//! What it deliberately does **not** capture: the private data shards and
//! static configuration (epochs, batch size, architecture, middleware
//! stack). A resumed run rebuilds those from the same builder inputs, then
//! installs the image with [`crate::FlSystem::restore`]. Because the
//! engine trains clients independently and aggregates in client order, the
//! partial-round driver ([`crate::FlSystem::begin_round_partial`] /
//! `finish_round`) produces a final model bit-identical to an
//! uninterrupted run, and a between-rounds image resumes the threaded wire
//! engine bit-identically under every codec — the determinism contracts
//! `tests/resume_determinism.rs` pins at every thread-pool width.
//!
//! All model tensors are stored at [`Dtype::F32`]: a resume image is a
//! fidelity-critical artifact, so the narrower f16/i8 widths (meant for
//! serving) are not offered here.

use crate::{ClientUpdate, FlError, MiddlewareState, Result};
use dinar_nn::ckpt::{expect_header, read_tensor, write_header, write_tensor, CkptKind};
use dinar_nn::optim::OptimState;
use dinar_nn::{LayerParams, ModelParams, NnError};
use dinar_tensor::wire::{ByteReader, ByteWriter, WireError};
use dinar_tensor::{Dtype, RngState};
use std::fs;
use std::path::Path;

/// One client's mutable state inside a resume image.
#[derive(Debug, Clone)]
pub struct ClientCkpt {
    /// The client's id (must match the rebuilt client on restore).
    pub id: usize,
    /// The client's (personalized) model parameters.
    pub params: ModelParams,
    /// The client's RNG stream position (batch shuffling determinism).
    pub rng: RngState,
    /// The client's optimizer state (momenta, accumulators, step count).
    pub optim: OptimState,
    /// Per-middleware state, `None` for stateless entries, in stack order.
    pub middleware: Vec<Option<MiddlewareState>>,
    /// The error-feedback residual carried between lossy uploads, `None`
    /// if the client has not uploaded over a lossy codec.
    pub residual: Option<ModelParams>,
}

/// The already-finished portion of an interrupted round: each entry is the
/// `(mean training loss, update)` a client produced, in client order
/// (clients `0..completed.len()` are done; the rest have not started).
#[derive(Debug, Clone, Default)]
pub struct PendingRound {
    /// Finished `(loss, update)` pairs, in client order.
    pub completed: Vec<(f32, ClientUpdate)>,
}

/// A complete FL resume image.
#[derive(Debug, Clone)]
pub struct FlCheckpoint {
    /// Rounds fully completed before the image was taken.
    pub rounds_run: usize,
    /// The server's current global model.
    pub global: ModelParams,
    /// Per-client state, in client order.
    pub clients: Vec<ClientCkpt>,
    /// The interrupted round's finished portion, if the image was taken
    /// mid-round.
    pub pending: Option<PendingRound>,
}

fn ckpt_len(n: usize, what: &'static str) -> Result<u32> {
    u32::try_from(n).map_err(|_| {
        FlError::Nn(NnError::Wire(WireError::LengthOverflow {
            what,
            value: u64::try_from(n).unwrap_or(u64::MAX),
        }))
    })
}

fn write_layer(w: &mut ByteWriter, layer: &LayerParams) -> Result<()> {
    w.put_u32(ckpt_len(layer.tensors.len(), "resume tensor count")?);
    for t in &layer.tensors {
        write_tensor(w, t, Dtype::F32)?;
    }
    Ok(())
}

fn read_layer(r: &mut ByteReader<'_>) -> Result<LayerParams> {
    let count = r.read_u32().map_err(NnError::Wire)?;
    let mut tensors = Vec::new();
    for _ in 0..count {
        tensors.push(read_tensor(r)?.into_tensor());
    }
    Ok(LayerParams::new(tensors))
}

fn write_params(w: &mut ByteWriter, params: &ModelParams) -> Result<()> {
    w.put_u32(ckpt_len(params.layers.len(), "resume layer count")?);
    for layer in &params.layers {
        write_layer(w, layer)?;
    }
    Ok(())
}

fn read_params(r: &mut ByteReader<'_>) -> Result<ModelParams> {
    let count = r.read_u32().map_err(NnError::Wire)?;
    let mut layers = Vec::new();
    for _ in 0..count {
        layers.push(read_layer(r)?);
    }
    Ok(ModelParams::new(layers))
}

fn write_rng(w: &mut ByteWriter, rng: &RngState) {
    for &word in &rng.words {
        w.put_u64(word);
    }
    match rng.gauss_cache {
        Some(cached) => {
            w.put_u8(1);
            w.put_f32(cached);
        }
        None => w.put_u8(0),
    }
}

fn read_rng(r: &mut ByteReader<'_>) -> Result<RngState> {
    let mut words = [0u64; 4];
    for word in &mut words {
        *word = r.read_u64().map_err(NnError::Wire)?;
    }
    let gauss_cache = match r.read_u8().map_err(NnError::Wire)? {
        0 => None,
        _ => Some(r.read_f32().map_err(NnError::Wire)?),
    };
    Ok(RngState { words, gauss_cache })
}

fn write_optim(w: &mut ByteWriter, optim: &OptimState) -> Result<()> {
    w.put_u32(ckpt_len(optim.scalars.len(), "resume optim scalar count")?);
    for &s in &optim.scalars {
        w.put_f32(s);
    }
    w.put_u32(ckpt_len(optim.groups.len(), "resume optim group count")?);
    for group in &optim.groups {
        w.put_u32(ckpt_len(group.len(), "resume optim group size")?);
        for t in group {
            write_tensor(w, t, Dtype::F32)?;
        }
    }
    Ok(())
}

fn read_optim(r: &mut ByteReader<'_>) -> Result<OptimState> {
    let scalar_count = r.read_u32().map_err(NnError::Wire)?;
    let mut scalars = Vec::new();
    for _ in 0..scalar_count {
        scalars.push(r.read_f32().map_err(NnError::Wire)?);
    }
    let group_count = r.read_u32().map_err(NnError::Wire)?;
    let mut groups = Vec::new();
    for _ in 0..group_count {
        let size = r.read_u32().map_err(NnError::Wire)?;
        let mut group = Vec::new();
        for _ in 0..size {
            group.push(read_tensor(r)?.into_tensor());
        }
        groups.push(group);
    }
    Ok(OptimState { scalars, groups })
}

fn write_middleware(w: &mut ByteWriter, state: &Option<MiddlewareState>) -> Result<()> {
    let Some(state) = state else {
        w.put_u8(0);
        return Ok(());
    };
    w.put_u8(1);
    match &state.rng {
        Some(rng) => {
            w.put_u8(1);
            write_rng(w, rng);
        }
        None => w.put_u8(0),
    }
    w.put_u32(ckpt_len(state.stored.len(), "resume middleware slot count")?);
    for slot in &state.stored {
        match slot {
            Some(layer) => {
                w.put_u8(1);
                write_layer(w, layer)?;
            }
            None => w.put_u8(0),
        }
    }
    Ok(())
}

fn read_middleware(r: &mut ByteReader<'_>) -> Result<Option<MiddlewareState>> {
    if r.read_u8().map_err(NnError::Wire)? == 0 {
        return Ok(None);
    }
    let rng = match r.read_u8().map_err(NnError::Wire)? {
        0 => None,
        _ => Some(read_rng(r)?),
    };
    let slot_count = r.read_u32().map_err(NnError::Wire)?;
    let mut stored = Vec::new();
    for _ in 0..slot_count {
        let slot = match r.read_u8().map_err(NnError::Wire)? {
            0 => None,
            _ => Some(read_layer(r)?),
        };
        stored.push(slot);
    }
    Ok(Some(MiddlewareState { rng, stored }))
}

/// Encodes a resume image as `DNCK` bytes (header kind `fl-resume`).
///
/// # Errors
///
/// Returns [`FlError::Nn`] wrapping a wire error if any count exceeds the
/// `u32`/`u64` file fields.
pub fn encode_resume(ckpt: &FlCheckpoint) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    write_header(&mut w, CkptKind::FlResume);
    w.put_u64(u64::try_from(ckpt.rounds_run).unwrap_or(u64::MAX));
    write_params(&mut w, &ckpt.global)?;
    w.put_u32(ckpt_len(ckpt.clients.len(), "resume client count")?);
    for client in &ckpt.clients {
        w.put_u64(u64::try_from(client.id).unwrap_or(u64::MAX));
        write_rng(&mut w, &client.rng);
        write_params(&mut w, &client.params)?;
        write_optim(&mut w, &client.optim)?;
        w.put_u32(ckpt_len(client.middleware.len(), "resume middleware count")?);
        for mw in &client.middleware {
            write_middleware(&mut w, mw)?;
        }
        match &client.residual {
            Some(residual) => {
                w.put_u8(1);
                write_params(&mut w, residual)?;
            }
            None => w.put_u8(0),
        }
    }
    match &ckpt.pending {
        Some(pending) => {
            w.put_u8(1);
            w.put_u32(ckpt_len(pending.completed.len(), "resume completed count")?);
            for (loss, update) in &pending.completed {
                w.put_u64(u64::try_from(update.client_id).unwrap_or(u64::MAX));
                w.put_f32(*loss);
                w.put_u64(u64::try_from(update.num_samples).unwrap_or(u64::MAX));
                write_params(&mut w, &update.params)?;
            }
        }
        None => w.put_u8(0),
    }
    Ok(w.into_bytes())
}

fn read_file_usize(r: &mut ByteReader<'_>, what: &'static str) -> Result<usize> {
    let value = r.read_u64().map_err(NnError::Wire)?;
    usize::try_from(value)
        .map_err(|_| FlError::Nn(NnError::Wire(WireError::LengthOverflow { what, value })))
}

/// Decodes a resume image. The whole buffer must be consumed.
///
/// # Errors
///
/// Returns [`FlError::Nn`] wrapping the typed wire error for truncation,
/// bad magic/version, a non-`fl-resume` kind, corrupt headers or trailing
/// bytes. Never panics.
pub fn decode_resume(bytes: &[u8]) -> Result<FlCheckpoint> {
    let mut r = ByteReader::new(bytes);
    expect_header(&mut r, CkptKind::FlResume)?;
    let rounds_run = read_file_usize(&mut r, "resume round counter")?;
    let global = read_params(&mut r)?;
    let client_count = r.read_u32().map_err(NnError::Wire)?;
    let mut clients = Vec::new();
    for _ in 0..client_count {
        let id = read_file_usize(&mut r, "resume client id")?;
        let rng = read_rng(&mut r)?;
        let params = read_params(&mut r)?;
        let optim = read_optim(&mut r)?;
        let mw_count = r.read_u32().map_err(NnError::Wire)?;
        let mut middleware = Vec::new();
        for _ in 0..mw_count {
            middleware.push(read_middleware(&mut r)?);
        }
        let residual = match r.read_u8().map_err(NnError::Wire)? {
            0 => None,
            _ => Some(read_params(&mut r)?),
        };
        clients.push(ClientCkpt { id, params, rng, optim, middleware, residual });
    }
    let pending = match r.read_u8().map_err(NnError::Wire)? {
        0 => None,
        _ => {
            let completed_count = r.read_u32().map_err(NnError::Wire)?;
            let mut completed = Vec::new();
            for _ in 0..completed_count {
                let client_id = read_file_usize(&mut r, "resume update client id")?;
                let loss = r.read_f32().map_err(NnError::Wire)?;
                let num_samples = read_file_usize(&mut r, "resume update samples")?;
                let params = read_params(&mut r)?;
                completed.push((loss, ClientUpdate { client_id, params, num_samples }));
            }
            Some(PendingRound { completed })
        }
    };
    r.finish().map_err(NnError::Wire)?;
    Ok(FlCheckpoint { rounds_run, global, clients, pending })
}

/// Saves a resume image to `path`.
///
/// # Errors
///
/// Propagates encode errors; I/O failures surface as
/// [`FlError::InvalidConfig`] with the path in the message.
pub fn save_resume(ckpt: &FlCheckpoint, path: impl AsRef<Path>) -> Result<()> {
    let bytes = encode_resume(ckpt)?;
    fs::write(path.as_ref(), bytes).map_err(|e| FlError::InvalidConfig {
        reason: format!("cannot write resume image {}: {e}", path.as_ref().display()),
    })
}

/// Loads a resume image from `path`.
///
/// # Errors
///
/// Same conditions as [`decode_resume`], plus I/O failures as
/// [`FlError::InvalidConfig`].
pub fn load_resume(path: impl AsRef<Path>) -> Result<FlCheckpoint> {
    let bytes = fs::read(path.as_ref()).map_err(|e| FlError::InvalidConfig {
        reason: format!("cannot read resume image {}: {e}", path.as_ref().display()),
    })?;
    decode_resume(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_tensor::{Rng, Tensor};

    fn params(v: f32) -> ModelParams {
        ModelParams::new(vec![LayerParams::new(vec![
            Tensor::full(&[2, 3], v),
            Tensor::full(&[3], v * 2.0),
        ])])
    }

    fn image() -> FlCheckpoint {
        let mut rng = Rng::seed_from(11);
        let _ = rng.normal(); // leave a gauss cache behind
        FlCheckpoint {
            rounds_run: 3,
            global: params(0.5),
            clients: vec![
                ClientCkpt {
                    id: 0,
                    params: params(1.0),
                    rng: rng.state(),
                    optim: OptimState {
                        scalars: vec![7.0],
                        groups: vec![vec![Tensor::full(&[2, 3], 0.1)], vec![]],
                    },
                    middleware: vec![
                        None,
                        Some(MiddlewareState {
                            rng: Some(Rng::seed_from(4).state()),
                            stored: vec![None, Some(LayerParams::new(vec![Tensor::ones(&[3])]))],
                        }),
                    ],
                    residual: Some(params(-0.125)),
                },
                ClientCkpt {
                    id: 1,
                    params: params(2.0),
                    rng: Rng::seed_from(9).state(),
                    optim: OptimState::default(),
                    middleware: vec![],
                    residual: None,
                },
            ],
            pending: Some(PendingRound {
                completed: vec![(
                    0.25,
                    ClientUpdate { client_id: 0, params: params(3.0), num_samples: 64 },
                )],
            }),
        }
    }

    #[test]
    fn resume_image_roundtrips_exactly() {
        let ckpt = image();
        let bytes = encode_resume(&ckpt).unwrap();
        assert_eq!(&bytes[..4], b"DNCK");
        let back = decode_resume(&bytes).unwrap();
        assert_eq!(back.rounds_run, ckpt.rounds_run);
        assert_eq!(back.global, ckpt.global);
        assert_eq!(back.clients.len(), 2);
        assert_eq!(back.clients[0].rng, ckpt.clients[0].rng);
        assert_eq!(back.clients[0].optim, ckpt.clients[0].optim);
        assert_eq!(back.clients[0].middleware, ckpt.clients[0].middleware);
        assert_eq!(back.clients[0].residual, ckpt.clients[0].residual);
        assert_eq!(back.clients[1].id, 1);
        assert!(back.clients[1].residual.is_none());
        let pending = back.pending.unwrap();
        assert_eq!(pending.completed.len(), 1);
        assert_eq!(pending.completed[0].0, 0.25);
        assert_eq!(pending.completed[0].1.num_samples, 64);
        assert_eq!(pending.completed[0].1.params, params(3.0));
    }

    #[test]
    fn between_rounds_image_has_no_pending() {
        let mut ckpt = image();
        ckpt.pending = None;
        let back = decode_resume(&encode_resume(&ckpt).unwrap()).unwrap();
        assert!(back.pending.is_none());
    }

    #[test]
    fn model_checkpoint_kind_is_rejected() {
        let p = params(1.0);
        let bytes = dinar_nn::ckpt::encode_checkpoint(&p, Dtype::F32).unwrap();
        assert!(matches!(
            decode_resume(&bytes),
            Err(FlError::Nn(NnError::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let bytes = encode_resume(&image()).unwrap();
        for cut in [0, 5, 7, 20, bytes.len() - 1] {
            assert!(decode_resume(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_resume(&extended),
            Err(FlError::Nn(NnError::Wire(WireError::TrailingBytes { .. })))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("dinar-fl-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.dnck");
        let ckpt = image();
        save_resume(&ckpt, &path).unwrap();
        let back = load_resume(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.global, ckpt.global);
        assert_eq!(back.clients.len(), ckpt.clients.len());
    }
}
