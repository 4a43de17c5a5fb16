//! Maps the service's canonical objects onto `levy-wire` binary frames.
//!
//! `levy-wire` knows bytes; this module knows the service. [`Query`]'s
//! fields are `levy-wire`'s own types, so the translations are field
//! moves plus the service's checks, each total and exact:
//!
//! * [`encode_query`] / [`decode_query`] — a validated [`Query`] to and
//!   from a [`levy_wire::QueryFrame`]. Decoding runs the same
//!   [`Query::validate`] as the JSON path (limits, cost caps, per-kind
//!   shape), so a binary client cannot smuggle a query the JSON API
//!   would reject; the embedded FNV key is then re-derived and
//!   mismatches rejected, so a frame can never address a cache slot its
//!   canonical form does not own.
//! * [`encode_result`] / [`result_frame_to_json`] — a
//!   `levy-served/result-v1` envelope to and from a
//!   [`levy_wire::ResultFrame`]. The envelope's query is read back with
//!   [`Query::from_canonical`], and the JSON side is rendered by the
//!   engine's [`render_envelope`]. Floats travel as `f64` bit patterns
//!   and the JSON writer is deterministic, so
//!   `result_frame_to_json(encode(body))` reproduces the original pretty
//!   body **byte-identically** — the property that lets cluster hops
//!   speak binary while JSON clients still receive the exact bytes a
//!   local simulation would have produced.
//! * [`batch_frame`] — one adaptive-estimator [`BatchProgress`] as a
//!   delta-packed streaming frame.
//!
//! Non-finite floats need one convention: the JSON writer renders them
//! as `null`, so `null` measurement fields decode to NaN and NaN
//! re-encodes to `null` (bit-exactness is preserved through the wire
//! side, textual identity through the JSON side).

use levy_sim::{BatchProgress, Json};
use levy_wire::{key_from_hex, key_to_hex, Frame, QueryFrame, ResultBody, ResultFrame};

use crate::engine::{render_envelope, RESULT_SCHEMA};
use crate::request::Query;

/// Builds the wire frame for a validated query.
pub fn query_to_frame(query: &Query) -> QueryFrame {
    let key = key_from_hex(&query.cache_key()).expect("cache_key renders 32 hex digits");
    frame_with_key(query, key)
}

/// The query's fields moved into a frame under an already-known key.
fn frame_with_key(query: &Query, key: [u8; 16]) -> QueryFrame {
    QueryFrame {
        key,
        kind: query.kind,
        exponent: query.exponent,
        search: query.search,
        k: query.k,
        ell: query.ell,
        budget: query.budget,
        placement: query.placement,
        estimator: query.estimator,
        seed: query.seed,
        timeout_ms: query.timeout_ms,
    }
}

/// Encodes a validated query as one binary frame.
pub fn encode_query(query: &Query) -> Vec<u8> {
    Frame::Query(query_to_frame(query)).encode()
}

/// Rebuilds a [`Query`] from a decoded frame.
///
/// The frame's typed fields move straight into the query struct — no
/// JSON intermediate on the hot path — and then pass through
/// [`Query::validate`], the same semantic limits the JSON API enforces.
/// The embedded key must match the re-derived canonical key.
pub fn query_from_frame(frame: &QueryFrame) -> Result<Query, String> {
    query_from_frame_with_key(frame).map(|(query, _)| query)
}

/// [`query_from_frame`] returning the verified canonical key alongside
/// the query, so callers that need the cache key don't re-derive it
/// (the key check here already paid for the canonicalisation + hash).
pub fn query_from_frame_with_key(frame: &QueryFrame) -> Result<(Query, String), String> {
    let query = Query {
        kind: frame.kind,
        exponent: frame.exponent,
        search: frame.search,
        k: frame.k,
        ell: frame.ell,
        budget: frame.budget,
        placement: frame.placement,
        estimator: frame.estimator,
        seed: frame.seed,
        timeout_ms: frame.timeout_ms,
    };
    query.validate().map_err(|e| e.0)?;
    let derived = query.cache_key();
    let embedded = key_to_hex(&frame.key);
    if derived != embedded {
        return Err(format!(
            "embedded key {embedded} does not match canonical key {derived}"
        ));
    }
    Ok((query, derived))
}

/// Decodes one binary frame into a validated [`Query`].
pub fn decode_query(bytes: &[u8]) -> Result<Query, String> {
    decode_query_with_key(bytes).map(|(query, _)| query)
}

/// [`decode_query`] that also returns the verified canonical cache key.
pub fn decode_query_with_key(bytes: &[u8]) -> Result<(Query, String), String> {
    match Frame::decode(bytes).map_err(|e| e.to_string())? {
        Frame::Query(frame) => query_from_frame_with_key(&frame),
        other => Err(format!(
            "expected a query frame, got {}",
            frame_kind_name(&other)
        )),
    }
}

fn frame_kind_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Query(_) => "query",
        Frame::Result(_) => "result",
        Frame::Batch(_) => "batch",
        Frame::Error(_) => "error",
        Frame::Final(_) => "final",
    }
}

/// Reads a float field that may have been serialized as `null` (the JSON
/// writer's spelling of a non-finite value).
fn f64_or_nan(obj: &Json, key: &str) -> Result<f64, String> {
    match obj.get(key) {
        None => Err(format!("result lacks field '{key}'")),
        Some(Json::Null) => Ok(f64::NAN),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("result field '{key}' is not a number")),
    }
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("result lacks integer field '{key}'"))
}

fn ci_field(obj: &Json, key: &str) -> Result<(f64, f64), String> {
    let arr = obj
        .get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("result lacks interval field '{key}'"))?;
    if arr.len() != 2 {
        return Err(format!("interval '{key}' must have two entries"));
    }
    let side = |v: &Json| -> Result<f64, String> {
        match v {
            Json::Null => Ok(f64::NAN),
            other => other
                .as_f64()
                .ok_or_else(|| format!("interval '{key}' entry is not a number")),
        }
    };
    Ok((side(&arr[0])?, side(&arr[1])?))
}

/// Builds the wire frame for a `levy-served/result-v1` envelope: the
/// reading side of [`render_envelope`]. The embedded query must parse
/// with [`Query::from_canonical`] and hash to the envelope's `key`, so
/// an envelope whose query was altered is rejected here.
pub fn result_to_frame(envelope: &Json) -> Result<ResultFrame, String> {
    if envelope.get("schema").and_then(|v| v.as_str()) != Some(RESULT_SCHEMA) {
        return Err(format!("envelope is not a {RESULT_SCHEMA} document"));
    }
    let key_hex = envelope
        .get("key")
        .and_then(|v| v.as_str())
        .ok_or("envelope lacks 'key'")?;
    let canonical = envelope.get("query").ok_or("envelope lacks 'query'")?;
    let query = Query::from_canonical(canonical).map_err(|e| e.0)?;
    let key = key_from_hex(key_hex)
        .filter(|_| query.cache_key() == key_hex)
        .ok_or("envelope key does not match its canonical query")?;
    let result = envelope.get("result").ok_or("envelope lacks 'result'")?;
    let body = match result.get("mode").and_then(|v| v.as_str()) {
        Some("summary") => ResultBody::Summary {
            trials: u64_field(result, "trials")?,
            hits: u64_field(result, "hits")?,
            censored: u64_field(result, "censored")?,
            budget: u64_field(result, "budget")?,
            hit_rate: f64_or_nan(result, "hit_rate")?,
            ci: ci_field(result, "hit_rate_ci95")?,
            conditional_mean: f64_or_nan(result, "conditional_mean")?,
            conditional_median: f64_or_nan(result, "conditional_median")?,
            mean_lower_bound: f64_or_nan(result, "mean_lower_bound")?,
        },
        Some("adaptive") => ResultBody::Adaptive {
            p: f64_or_nan(result, "p")?,
            ci: ci_field(result, "ci95")?,
            trials_used: u64_field(result, "trials_used")?,
            successes: u64_field(result, "successes")?,
            batches: u64_field(result, "batches")?,
            converged: result
                .get("converged")
                .and_then(|v| v.as_bool())
                .ok_or("result lacks boolean field 'converged'")?,
            max_trials: u64_field(result, "max_trials")?,
        },
        _ => return Err("result lacks a known 'mode'".into()),
    };
    Ok(ResultFrame {
        query: frame_with_key(&query, key),
        body,
    })
}

/// Encodes a result envelope as one binary frame.
pub fn encode_result(envelope: &Json) -> Result<Vec<u8>, String> {
    Ok(Frame::Result(result_to_frame(envelope)?).encode())
}

/// Rebuilds the exact `levy-served/result-v1` JSON document from a wire
/// frame, through the engine's own renderer
/// ([`render_envelope`]), so pretty-printing the returned value
/// reproduces the original body byte for byte.
pub fn result_frame_to_json(frame: &ResultFrame) -> Result<Json, String> {
    let (query, key) = query_from_frame_with_key(&frame.query)?;
    Ok(render_envelope(&query, &key, &frame.body))
}

/// Decodes a binary result frame back to its exact pretty JSON body.
pub fn decode_result_to_json(bytes: &[u8]) -> Result<Json, String> {
    match Frame::decode(bytes).map_err(|e| e.to_string())? {
        Frame::Result(frame) => result_frame_to_json(&frame),
        other => Err(format!(
            "expected a result frame, got {}",
            frame_kind_name(&other)
        )),
    }
}

/// One adaptive batch as a delta-packed streaming frame. `previous`
/// carries the totals of the frame before this one (zeros for the
/// first), so only the increments travel.
pub fn batch_frame(progress: &BatchProgress, previous: Option<&BatchProgress>) -> Frame {
    let (prev_trials, prev_successes) = previous.map_or((0, 0), |p| (p.trials, p.successes));
    Frame::Batch(levy_wire::BatchFrame {
        batch: progress.batch,
        trials_delta: progress.trials - prev_trials,
        successes_delta: progress.successes - prev_successes,
        p: progress.p,
        ci: progress.ci,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::tests::KINDS;
    use levy_sim::CancelToken;

    fn query(body: &str) -> Query {
        Query::from_json(&Json::parse(body).expect("valid JSON")).expect("valid query")
    }

    #[test]
    fn every_query_kind_round_trips_through_the_wire() {
        for body in KINDS {
            let q = query(body);
            let bytes = encode_query(&q);
            let back = decode_query(&bytes).expect(body);
            assert_eq!(back, q, "{body}");
            assert_eq!(back.cache_key(), q.cache_key());
        }
    }

    #[test]
    fn tampered_keys_are_rejected() {
        let q = query(KINDS[0]);
        let mut frame = query_to_frame(&q);
        frame.key[0] ^= 0xff;
        let err = query_from_frame(&frame).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn invalid_frames_fail_validation_like_json_does() {
        let q = query(KINDS[0]);
        let mut frame = query_to_frame(&q);
        frame.k = 0;
        assert!(query_from_frame(&frame).is_err(), "k = 0 must be rejected");
        let mut frame = query_to_frame(&q);
        frame.budget = u64::MAX;
        assert!(
            query_from_frame(&frame).is_err(),
            "oversized budget must be rejected"
        );
    }

    #[test]
    fn result_envelopes_transcode_byte_identically() {
        for body in KINDS {
            let q = query(body);
            let envelope = crate::engine::execute(&q, 2, &CancelToken::new()).expect("executes");
            let pretty = envelope.to_string_pretty();
            let bytes = encode_result(&envelope).expect(body);
            let back = decode_result_to_json(&bytes).expect(body);
            assert_eq!(
                back.to_string_pretty(),
                pretty,
                "wire transcode must reproduce the exact body for {body}"
            );
        }
    }

    #[test]
    fn null_measurement_fields_survive_the_round_trip() {
        // An unreachable target: zero hits, so the conditional statistics
        // are NaN and serialize as null.
        let q = query(r#"{"kind":"single_walk","alpha":9.0,"ell":4096,"budget":1,"trials":5}"#);
        let envelope = crate::engine::execute(&q, 1, &CancelToken::new()).expect("executes");
        let pretty = envelope.to_string_pretty();
        assert!(pretty.contains("null"), "expected null fields in {pretty}");
        let bytes = encode_result(&envelope).expect("encodes");
        let back = decode_result_to_json(&bytes).expect("decodes");
        assert_eq!(back.to_string_pretty(), pretty);
    }

    #[test]
    fn batch_frames_delta_pack_against_the_previous_batch() {
        let first = BatchProgress {
            batch: 1,
            trials: 256,
            successes: 100,
            p: 100.0 / 256.0,
            ci: (0.3, 0.45),
        };
        let second = BatchProgress {
            batch: 2,
            trials: 768,
            successes: 310,
            p: 310.0 / 768.0,
            ci: (0.37, 0.44),
        };
        let Frame::Batch(b1) = batch_frame(&first, None) else {
            panic!("wrong kind");
        };
        assert_eq!((b1.trials_delta, b1.successes_delta), (256, 100));
        let Frame::Batch(b2) = batch_frame(&second, Some(&first)) else {
            panic!("wrong kind");
        };
        assert_eq!((b2.trials_delta, b2.successes_delta), (512, 210));
        assert_eq!(b2.batch, 2);
    }

    #[test]
    fn wrong_frame_kinds_are_rejected_with_structure() {
        let q = query(KINDS[0]);
        let query_bytes = encode_query(&q);
        assert!(decode_result_to_json(&query_bytes)
            .unwrap_err()
            .contains("expected a result frame"));
        let envelope = crate::engine::execute(&q, 1, &CancelToken::new()).unwrap();
        let result_bytes = encode_result(&envelope).unwrap();
        assert!(decode_query(&result_bytes)
            .unwrap_err()
            .contains("expected a query frame"));
    }
}
