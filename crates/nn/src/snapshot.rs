//! Wire-format encode/decode of [`ModelParams`] snapshots.
//!
//! The FL transport exchanges models as bytes, not handles: the server
//! broadcasts an encoded global snapshot and every client upload comes
//! back encoded (optionally compressed). This module defines the
//! model-level framing over the tensor-level codec in
//! [`dinar_tensor::wire`]:
//!
//! ```text
//! header (magic "DNWR", version u16, codec u8)
//! layer_count: u32
//! per layer: tensor_count u32, then tensor frames (see dinar_tensor::wire)
//! ```
//!
//! Encoding reads straight out of the snapshot's copy-on-write buffers —
//! take the snapshot with [`ModelParams::share`] and serialization is the
//! only pass over the data. [`decode_params`] validates every length
//! header against the buffer before allocating and returns typed errors
//! for any corruption; it never panics.
//!
//! # Error feedback
//!
//! The lossy codecs ([`Codec::Sign1`], [`Codec::QuantI8`]) discard
//! per-element information every round. [`ErrorFeedback`] implements the
//! standard compensation: the residual `v − decode(encode(v))` is carried
//! client-side and added to the next round's update before encoding, so
//! quantization error accumulates into later rounds instead of being lost
//! (Seide et al.'s 1-bit SGD trick). For [`Codec::F32`] the residual is
//! identically zero and is not materialized.

use crate::{ModelParams, NnError, Result};
use dinar_tensor::wire::{
    decode_tensor, encode_tensor, encoded_tensor_len, read_header, write_header, ByteReader,
    ByteWriter, Codec, WireError, HEADER_LEN,
};

/// Exact byte length [`encode_params`] will produce for `params` under
/// `codec` — usable for byte metering without encoding.
pub fn encoded_params_len(params: &ModelParams, codec: Codec) -> usize {
    let mut total = HEADER_LEN + 4;
    for layer in &params.layers {
        total += 4;
        for t in &layer.tensors {
            total += encoded_tensor_len(t, codec);
        }
    }
    total
}

/// Encodes a parameter snapshot to wire bytes under `codec`, reading
/// directly from the snapshot's shared buffers (no copy-on-write
/// materialization) into a single exactly-sized allocation.
///
/// # Errors
///
/// Returns [`NnError::Wire`] if a layer/tensor count or dimension exceeds
/// the `u32` wire fields.
pub fn encode_params(params: &ModelParams, codec: Codec) -> Result<Vec<u8>> {
    let mut w = ByteWriter::with_capacity(encoded_params_len(params, codec));
    write_header(&mut w, codec);
    w.put_u32(wire_len(params.layers.len(), "layer count")?);
    for layer in &params.layers {
        w.put_u32(wire_len(layer.tensors.len(), "tensor count")?);
        for t in &layer.tensors {
            encode_tensor(t, codec, &mut w).map_err(NnError::Wire)?;
        }
    }
    Ok(w.into_bytes())
}

/// Decodes wire bytes back into a [`ModelParams`], reading the codec from
/// the stream header. The whole buffer must be consumed.
///
/// # Errors
///
/// Returns [`NnError::Wire`] for truncated buffers, bad magic/version,
/// unknown codecs, overflowing length headers, corrupt payloads or
/// trailing bytes. Never panics.
pub fn decode_params(bytes: &[u8]) -> Result<ModelParams> {
    let mut r = ByteReader::new(bytes);
    let codec = read_header(&mut r).map_err(NnError::Wire)?;
    let layer_count = r.read_u32().map_err(NnError::Wire)?;
    // Counts come from the wire: grow the Vecs by push so a corrupt huge
    // count hits a Truncated error instead of a giant reservation.
    let mut layers = Vec::new();
    for _ in 0..layer_count {
        let tensor_count = r.read_u32().map_err(NnError::Wire)?;
        let mut tensors = Vec::new();
        for _ in 0..tensor_count {
            tensors.push(decode_tensor(&mut r, codec).map_err(NnError::Wire)?);
        }
        layers.push(crate::params::LayerParams::new(tensors));
    }
    r.finish().map_err(NnError::Wire)?;
    Ok(ModelParams::new(layers))
}

pub(crate) fn wire_len(n: usize, what: &'static str) -> Result<u32> {
    u32::try_from(n).map_err(|_| {
        NnError::Wire(WireError::LengthOverflow {
            what,
            value: u64::try_from(n).unwrap_or(u64::MAX),
        })
    })
}

/// Client-side error-feedback state for lossy update compression.
///
/// Holds the residual (quantization error) of the previous round and
/// folds it into the next update before encoding. One instance per
/// client; the state never crosses the wire, but it is part of the
/// client's resume state ([`residual`](ErrorFeedback::residual) /
/// [`with_residual`](ErrorFeedback::with_residual)).
#[derive(Debug, Default)]
pub struct ErrorFeedback {
    residual: Option<ModelParams>,
}

impl ErrorFeedback {
    /// Fresh state with no carried residual.
    pub fn new() -> ErrorFeedback {
        ErrorFeedback::default()
    }

    /// State carrying `residual` — the inverse of
    /// [`residual`](ErrorFeedback::residual), for restoring a checkpoint.
    pub fn with_residual(residual: Option<ModelParams>) -> ErrorFeedback {
        ErrorFeedback { residual }
    }

    /// The currently carried residual, if any.
    pub fn residual(&self) -> Option<&ModelParams> {
        self.residual.as_ref()
    }

    /// Encodes `update` under `codec`, compensating with and refreshing
    /// the carried residual.
    ///
    /// For a lossless codec this is plain [`encode_params`] and any stale
    /// residual is dropped. For a lossy codec the compensated value
    /// `v = update + residual` is encoded, and the new residual
    /// `v − decode(encode(v))` replaces the old one.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Wire`] on encode failure and
    /// [`NnError::ParamShapeMismatch`] if the carried residual's
    /// architecture no longer matches the update's.
    pub fn compress(&mut self, update: &ModelParams, codec: Codec) -> Result<Vec<u8>> {
        if !codec.is_lossy() {
            self.residual = None;
            return encode_params(update, codec);
        }
        let compensated = match self.residual.take() {
            Some(residual) => {
                let mut v = update.share();
                v.add_assign(&residual)?;
                v
            }
            None => update.share(),
        };
        let bytes = encode_params(&compensated, codec)?;
        let decoded = decode_params(&bytes)?;
        self.residual = Some(compensated.sub(&decoded)?);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{self, Activation};
    use dinar_tensor::Rng;

    fn small_params() -> ModelParams {
        let mut rng = Rng::seed_from(31);
        let model = models::mlp(&[4, 6, 3], Activation::ReLU, &mut rng).unwrap();
        model.params()
    }

    #[test]
    fn lossless_roundtrip_is_bit_identical() {
        let p = small_params();
        let bytes = encode_params(&p, Codec::F32).unwrap();
        assert_eq!(bytes.len(), encoded_params_len(&p, Codec::F32));
        let back = decode_params(&bytes).unwrap();
        assert!(back.same_shape(&p));
        for (a, b) in p.layers.iter().zip(&back.layers) {
            for (ta, tb) in a.tensors.iter().zip(&b.tensors) {
                let bits_a: Vec<u32> = ta.as_slice().iter().map(|x| x.to_bits()).collect();
                let bits_b: Vec<u32> = tb.as_slice().iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits_a, bits_b);
            }
        }
    }

    #[test]
    fn encode_does_not_materialize_the_cow_snapshot() {
        let p = small_params();
        let snapshot = p.share();
        let before = dinar_tensor::profile::param_snapshot();
        let _ = encode_params(&snapshot, Codec::F32).unwrap();
        let delta = dinar_tensor::profile::param_snapshot().delta_since(&before);
        assert_eq!(delta.copy_calls, 0, "encode deep-copied a shared buffer");
    }

    #[test]
    fn lossy_codecs_roundtrip_shapes_and_sizes() {
        let p = small_params();
        let f32_len = encoded_params_len(&p, Codec::F32);
        for codec in [Codec::Sign1, Codec::QuantI8] {
            let bytes = encode_params(&p, codec).unwrap();
            assert_eq!(bytes.len(), encoded_params_len(&p, codec), "{codec:?}");
            assert!(bytes.len() < f32_len, "{codec:?} did not compress");
            let back = decode_params(&bytes).unwrap();
            assert!(back.same_shape(&p), "{codec:?}");
        }
        // Sign1 is ≥8× smaller than raw f32 once the model is big enough
        // that per-tensor framing stops dominating — the wire plane's
        // headline compression ratio (ratcheted end-to-end by
        // tests/bench_ratchet.rs over BENCH_wire.json).
        let mut rng = Rng::seed_from(5);
        let big = models::mlp(&[64, 32, 10], Activation::ReLU, &mut rng)
            .unwrap()
            .params();
        let sign1 = encode_params(&big, Codec::Sign1).unwrap();
        let raw = encoded_params_len(&big, Codec::F32);
        assert!(sign1.len() * 8 <= raw, "sign1 {} vs f32 {raw}", sign1.len());
    }

    #[test]
    fn error_feedback_recovers_quantization_loss_over_rounds() {
        // Repeatedly transmitting the same update with feedback must
        // converge: the running mean of the decoded transmissions
        // approaches the true update, which a feedback-free encoder can
        // never do (its error is identical every round).
        let p = small_params();
        let mut fb = ErrorFeedback::new();
        let mut mean = p.zeros_like();
        let rounds = 64;
        for _ in 0..rounds {
            let bytes = fb.compress(&p, Codec::Sign1).unwrap();
            let decoded = decode_params(&bytes).unwrap();
            mean.add_assign(&decoded).unwrap();
        }
        mean.scale(1.0 / dinar_tensor::cast::len_to_f32(rounds));
        let err = mean.max_abs_diff(&p).unwrap();
        let mut fb_free = p.zeros_like();
        let once = decode_params(&encode_params(&p, Codec::Sign1).unwrap()).unwrap();
        fb_free.add_assign(&once).unwrap();
        let err_free = fb_free.max_abs_diff(&p).unwrap();
        assert!(
            err < err_free * 0.5,
            "feedback mean err {err} not well under feedback-free {err_free}"
        );
        assert!(fb.residual().is_some());
    }

    #[test]
    fn lossless_compress_drops_residual_and_matches_plain_encode() {
        let p = small_params();
        let mut fb = ErrorFeedback::new();
        let _ = fb.compress(&p, Codec::QuantI8).unwrap();
        assert!(fb.residual().is_some());
        let bytes = fb.compress(&p, Codec::F32).unwrap();
        assert!(!fb.residual().is_some());
        assert_eq!(bytes, encode_params(&p, Codec::F32).unwrap());
    }

    #[test]
    fn corrupted_model_streams_return_typed_errors() {
        let p = small_params();
        let bytes = encode_params(&p, Codec::F32).unwrap();
        // Every strict prefix fails.
        for cut in [0, 3, HEADER_LEN, HEADER_LEN + 2, bytes.len() - 1] {
            assert!(decode_params(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        // Trailing garbage fails.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_params(&extended),
            Err(NnError::Wire(WireError::TrailingBytes { .. }))
        ));
        // A corrupt layer count runs into truncation, not an abort.
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN] = 0xFF;
        assert!(decode_params(&corrupt).is_err());
    }
}
