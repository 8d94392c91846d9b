//! Property tests for the JSON the serde shim writes straight from
//! typed values.
//!
//! The event log and checkpoints are rendered by the streaming
//! serializer without building a `Value` tree. For arbitrary
//! `MonitorEvent`s (every variant) and v3/v4 `SupervisorSnapshot`s,
//! seeded with awkward floats (NaN, ±inf, −0.0, subnormals, `1e21`,
//! `1e-7`), extreme integers and names full of escape characters:
//!
//! * compact output is canonical: it equals the rendering of its own
//!   parsed `Value` tree;
//! * pretty output equals the `Value` tree's pretty rendering;
//! * parsing round-trips bit-exactly, except that non-finite floats
//!   (written as `null`) come back as NaN.

use proptest::prelude::*;
use rejuv_core::{DetectorKind, DetectorSnapshot, DetectorSpec};
use rejuv_monitor::{
    MonitorEvent, Supervisor, SupervisorConfig, SupervisorSnapshot, SNAPSHOT_VERSION,
    SNAPSHOT_VERSION_DLQ,
};
use serde_json::Value;

fn special_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(0.0),
        Just(5e-324),
        Just(f64::MIN_POSITIVE / 3.0),
        Just(1e21),
        Just(1e-7),
        Just(f64::MAX),
        Just(9_007_199_254_740_993.0),
        -1e6f64..1e6,
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn special_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(u64::MAX), Just(0u64), 0u64..1_000, any::<u64>()]
}

/// Names drawn from an alphabet heavy in characters JSON must escape.
fn name() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 12] = [
        'a', 'Z', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/', 'é', '😀',
    ];
    proptest::collection::vec(0usize..ALPHABET.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn floats(max: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(special_f64(), 0..max)
}

fn spec() -> impl Strategy<Value = DetectorSpec> {
    (
        0usize..DetectorKind::ALL.len(),
        (special_f64(), special_f64(), special_f64(), special_f64()),
        (special_f64(), special_f64(), special_f64()),
        (1usize..40, 1usize..6, 1u32..5),
    )
        .prop_map(
            |(kind, (mu, sigma, quantile, reference), (decision, weight, limit), sizes)| {
                let mut spec = DetectorSpec::new(DetectorKind::ALL[kind]);
                (spec.mu, spec.sigma, spec.quantile, spec.reference) =
                    (mu, sigma, quantile, reference);
                (spec.decision, spec.weight, spec.limit) = (decision, weight, limit);
                (spec.sample_size, spec.buckets, spec.depth) = sizes;
                spec
            },
        )
}

/// A real detector's state after `values` (finite by construction: the
/// detectors themselves only ever see response times).
fn detector_snapshot() -> impl Strategy<Value = DetectorSnapshot> {
    (
        0usize..DetectorKind::ALL.len(),
        proptest::collection::vec(0.0f64..60.0, 0..40),
    )
        .prop_map(|(kind, values)| {
            let mut detector = DetectorSpec::new(DetectorKind::ALL[kind]).build().unwrap();
            for v in values {
                detector.observe(v);
            }
            detector.snapshot().expect("every kind snapshots")
        })
}

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), special_u64().prop_map(Some)]
}

fn event() -> impl Strategy<Value = MonitorEvent> {
    prop_oneof![
        (
            any::<u64>(),
            name(),
            special_u64(),
            special_u64(),
            opt_u64()
        )
            .prop_map(
                |(shards, detector, queue_capacity, drain_batch, snapshot_every)| {
                    MonitorEvent::Start {
                        shards: shards as u32,
                        detector,
                        queue_capacity,
                        drain_batch,
                        snapshot_every,
                    }
                }
            ),
        (
            proptest::collection::vec(spec(), 0..4),
            special_u64(),
            special_u64(),
            opt_u64()
        )
            .prop_map(|(specs, queue_capacity, drain_batch, snapshot_every)| {
                MonitorEvent::FleetStart {
                    shards: specs.len() as u32,
                    specs,
                    queue_capacity,
                    drain_batch,
                    snapshot_every,
                }
            }),
        (any::<u64>(), special_u64(), floats(8)).prop_map(|(shard, seq, values)| {
            MonitorEvent::Batch {
                shard: shard as u32,
                seq,
                values,
            }
        }),
        (any::<u64>(), special_u64(), floats(8), floats(8)).prop_map(
            |(shard, seq, values, times)| MonitorEvent::TimedBatch {
                shard: shard as u32,
                seq,
                values,
                times,
            }
        ),
        (any::<u64>(), special_u64()).prop_map(|(shard, seq)| MonitorEvent::Rejuvenated {
            shard: shard as u32,
            seq,
        }),
        (any::<u64>(), special_u64(), detector_snapshot()).prop_map(|(shard, seq, state)| {
            MonitorEvent::Snapshot {
                shard: shard as u32,
                seq,
                state,
            }
        }),
    ]
}

/// What a parse of the written JSON must give back: the value itself,
/// with every non-finite float turned into the NaN its `null` parses
/// as. Compared through `Debug`, which prints every finite float in
/// its shortest round-trip form (`-0.0` included), so equal text means
/// bit-equal floats.
fn expected_debug(debug: &str) -> String {
    let mut out = String::with_capacity(debug.len());
    let mut rest = debug;
    while let Some(at) = rest.find("inf") {
        let (head, tail) = rest.split_at(at);
        let float_start = head.strip_suffix('-').unwrap_or(head);
        let before_ok = float_start.ends_with([' ', '(', '[']);
        let after_ok = tail[3..].starts_with([',', ')', ']', '}', ' ']) || tail.len() == 3;
        if before_ok && after_ok {
            out.push_str(float_start);
            out.push_str("NaN");
        } else {
            out.push_str(head);
            out.push_str("inf");
        }
        rest = &tail[3..];
    }
    out.push_str(rest);
    out
}

/// The three format properties for one typed value.
fn check_format<T>(value: &T) -> Result<(), proptest::test_runner::TestCaseError>
where
    T: serde::Serialize + serde::Deserialize + std::fmt::Debug,
{
    let compact = serde_json::to_string(value).unwrap();
    let tree: Value = serde_json::from_str(&compact).unwrap();
    prop_assert_eq!(&compact, &serde_json::to_string(&tree).unwrap());
    prop_assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
    let back: T = serde_json::from_str(&compact).unwrap();
    prop_assert_eq!(format!("{back:?}"), expected_debug(&format!("{value:?}")));
    Ok(())
}

fn snapshot(dlq: bool) -> impl Strategy<Value = SupervisorSnapshot> {
    (
        proptest::collection::vec(0.0f64..60.0, 0..200),
        (special_u64(), special_u64(), special_f64(), spec()),
        proptest::collection::vec((name(), special_u64(), special_f64()), 0..4),
        proptest::collection::vec((special_f64(), special_f64()), 0..6),
    )
        .prop_map(
            move |(values, (count, digest, last_at, spec), names, samples)| {
                let specs: Vec<DetectorSpec> = DetectorKind::ALL
                    .iter()
                    .map(|&kind| DetectorSpec::new(kind))
                    .collect();
                let mut live = Supervisor::with_specs(SupervisorConfig::default(), &specs).unwrap();
                if dlq {
                    live.enable_dlq(16);
                }
                for (i, &v) in values.iter().enumerate() {
                    live.process_sync(i % specs.len(), v).unwrap();
                }
                let mut snap = live.snapshot().expect("every kind snapshots");
                let shard = &mut snap.shards[0];
                // `Some(non-finite)` would write `null` and read back as
                // `None`; timestamps are finite whenever present.
                let last_at = last_at.is_finite().then_some(last_at);
                (shard.processed, shard.digest, shard.last_at) = (count, digest, last_at);
                shard.spec = Some(spec);
                for (name, count, gauge) in names {
                    snap.metrics.counters.insert(name.clone(), count);
                    snap.metrics.gauges.insert(name, gauge);
                }
                if let Some(entry) = snap.dlq.first_mut() {
                    entry.samples = samples;
                    entry.captured = count;
                }
                snap
            },
        )
}

proptest! {
    #[test]
    fn monitor_events_write_canonical_json(event in event()) {
        check_format(&event)?;
    }

    #[test]
    fn v3_snapshots_write_canonical_json(snap in snapshot(false)) {
        prop_assert_eq!(snap.version, SNAPSHOT_VERSION);
        prop_assert!(snap.dlq.is_empty());
        let compact = serde_json::to_string(&snap).unwrap();
        prop_assert!(!compact.contains("\"dlq\""), "v3 checkpoints carry no dlq key");
        check_format(&snap)?;
    }

    #[test]
    fn v4_snapshots_write_canonical_json(snap in snapshot(true)) {
        prop_assert_eq!(snap.version, SNAPSHOT_VERSION_DLQ);
        prop_assert!(!snap.dlq.is_empty());
        check_format(&snap)?;
    }
}
