//! Property-based tests for the tsdb crate.

use manic_tsdb::wal::{replay_segment_file, sample_entries, write_snapshot};
use manic_tsdb::{format_key, parse_key, Aggregate, Point, Series, SeriesKey, Store, TagSet, WalRecord};
use proptest::prelude::*;

/// The seed's array-of-structs downsampling semantics: collect every bin's
/// values into a `Vec<f64>` in stored order, then aggregate the collection.
/// The columnar streaming fold must be value-identical (same fold order,
/// same partial sums), not merely approximately equal.
fn aos_reference_aggregate(vals: &[f64], agg: Aggregate) -> f64 {
    match agg {
        Aggregate::Min => vals.iter().cloned().fold(f64::INFINITY, f64::min),
        Aggregate::Max => vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        Aggregate::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
        Aggregate::Sum => vals.iter().sum(),
        Aggregate::Count => vals.len() as f64,
        Aggregate::Last => *vals.last().unwrap(),
    }
}

/// Temp path unique to one proptest case.
fn case_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("manic-prop-{tag}-{}-{n}.seg", std::process::id()))
}

/// A store holding `samples` spread round-robin over three series, and
/// its snapshot segment at `path` (a `K` and a `B` frame per series).
fn snapshot_of(samples: &[(i64, f64)], path: &std::path::Path) -> (Store, Vec<SeriesKey>) {
    let keys: Vec<SeriesKey> = (0..3)
        .map(|i| SeriesKey::with_tags("tslp", &[("vp", "v1"), ("link", &format!("1.2.3.{i}"))]))
        .collect();
    let store = Store::new();
    for (i, &(t, v)) in samples.iter().enumerate() {
        store.write(&keys[i % keys.len()], t, v);
    }
    write_snapshot(&manic_vfs::RealVfs, path, &store).unwrap();
    (store, keys)
}

fn arb_aggregate() -> impl Strategy<Value = Aggregate> {
    (0u8..6).prop_map(|i| match i {
        0 => Aggregate::Min,
        1 => Aggregate::Max,
        2 => Aggregate::Mean,
        3 => Aggregate::Sum,
        4 => Aggregate::Count,
        _ => Aggregate::Last,
    })
}

proptest! {
    /// downsample(Min) output is <= every raw sample inside its bin and is a
    /// member of the bin.
    #[test]
    fn downsample_min_is_bin_minimum(
        pts in prop::collection::vec((0i64..10_000, -1e6f64..1e6), 1..200),
        bin in 1i64..1000,
    ) {
        let mut s = Series::new();
        for &(t, v) in &pts {
            s.push(t, v);
        }
        for Point { t: bin_start, v } in s.downsample(0, 10_000, bin, Aggregate::Min) {
            let in_bin: Vec<f64> = pts
                .iter()
                .filter(|(t, _)| *t >= bin_start && *t < bin_start + bin)
                .map(|&(_, v)| v)
                .collect();
            prop_assert!(!in_bin.is_empty());
            let min = in_bin.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(v, min);
        }
    }

    /// The series stays sorted no matter the insertion order.
    #[test]
    fn series_always_sorted(pts in prop::collection::vec((0i64..1000, -10.0f64..10.0), 0..100)) {
        let mut s = Series::new();
        for &(t, v) in &pts {
            s.push(t, v);
        }
        let ts: Vec<i64> = s.all().iter().map(|p| p.t).collect();
        prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(s.len(), pts.len());
    }

    /// range(start, end) returns exactly the points in the half-open window.
    #[test]
    fn range_matches_linear_filter(
        pts in prop::collection::vec((0i64..1000, -10.0f64..10.0), 0..100),
        start in 0i64..1000,
        len in 0i64..1000,
    ) {
        let mut s = Series::new();
        for &(t, v) in &pts {
            s.push(t, v);
        }
        let end = start + len;
        let got = s.range(start, end).len();
        let expected = pts.iter().filter(|(t, _)| *t >= start && *t < end).count();
        prop_assert_eq!(got, expected);
    }

    /// Key-token roundtrip through arbitrary tag-ish strings.
    #[test]
    fn key_token_roundtrip(
        meas in "[a-z]{1,8}",
        tags in prop::collection::vec(("[a-z]{1,6}", "[a-zA-Z0-9_.-]{1,8}"), 0..4),
    ) {
        let key = SeriesKey::new(
            meas,
            TagSet::from_pairs(tags.iter().map(|(k, v)| (k.clone(), v.clone()))),
        );
        let tok = format_key(&key).expect("clean names");
        prop_assert_eq!(parse_key(&tok).unwrap(), key);
    }

    /// Hostile names — structural characters, backslashes, spaces — either
    /// format-and-roundtrip exactly or are rejected at format time. No
    /// silently unparseable token is ever produced.
    #[test]
    fn key_token_roundtrips_or_rejects_hostile_names(
        meas in "[a-z ,=\\\\]{1,8}",
        tags in prop::collection::vec(("[a-z ,=\\\\]{1,5}", "[a-z0-9 ,=\\\\._-]{1,8}"), 0..3),
    ) {
        let key = SeriesKey::new(
            meas,
            TagSet::from_pairs(tags.iter().map(|(k, v)| (k.clone(), v.clone()))),
        );
        if let Ok(tok) = format_key(&key) {
            prop_assert_eq!(parse_key(&tok).unwrap(), key, "token: {}", tok);
        }
    }

    /// The key-token parser never panics, whatever the input.
    #[test]
    fn parse_key_never_panics(s in "[ -~]{0,80}") {
        let _ = parse_key(&s);
    }

    /// Arbitrary bytes never panic the WAL record decoder.
    #[test]
    fn wal_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..120)) {
        let _ = WalRecord::decode(&bytes);
    }

    /// encode -> decode is the identity for valid WAL control records.
    #[test]
    fn wal_record_roundtrip(
        link in "[a-z0-9.]{1,12}",
        from in -1000i64..1000,
        len in 1i64..1000,
        flags in 1u8..16,
        cutoff in -1_000_000i64..1_000_000,
    ) {
        let key = SeriesKey::with_tags("tslp", &[("vp", "v1"), ("link", &link)]);
        for rec in [
            WalRecord::Annotate { key, from, to: from + len, flags },
            WalRecord::Retain { cutoff },
        ] {
            let enc = rec.encode().expect("clean names encode");
            let dec = WalRecord::decode(&enc).expect("own encoding decodes");
            prop_assert_eq!(dec, rec);
        }
    }

    /// Any prefix of a snapshot segment replays cleanly: at worst the final
    /// frame is fenced as torn, never a panic or a half-applied frame. Each
    /// series is one `B` frame, so it replays whole or not at all.
    #[test]
    fn random_segment_prefix_always_replays(
        samples in prop::collection::vec((0i64..10_000, -1e6f64..1e6), 1..30),
        cut_back in 0usize..200,
    ) {
        let path = case_path("seg");
        let (original, keys) = snapshot_of(&samples, &path);
        let full = std::fs::metadata(&path).unwrap().len();
        let cut = full.saturating_sub(cut_back as u64);
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(cut).unwrap();

        let store = Store::new();
        let report = replay_segment_file(&path, &store).unwrap();
        prop_assert!(report.samples <= samples.len() as u64);
        prop_assert!(report.torn_records <= 1);
        if cut >= full {
            prop_assert_eq!(report.samples, samples.len() as u64, "untouched file replays fully");
            prop_assert_eq!(report.torn_records, 0);
            prop_assert_eq!(store.content_hash(), original.content_hash());
        }
        // Replay applied a prefix of the series sequence, each series whole.
        let mut replayed = 0;
        let mut ended = false;
        for key in &keys {
            let got = store.query(key, i64::MIN, i64::MAX);
            if got.is_empty() {
                ended = true;
                continue;
            }
            prop_assert!(!ended, "series {} replayed after a missing one", key);
            prop_assert_eq!(&got, &original.query(key, i64::MIN, i64::MAX));
            replayed += got.len() as u64;
        }
        prop_assert_eq!(replayed, report.samples);
        std::fs::remove_file(&path).unwrap();
    }

    /// Flipping any single bit in a sealed snapshot segment is
    /// recover-or-flag, never a panic and never silent divergence: the
    /// resync scan keeps a subset of the original frames, every `(t, v)` a
    /// CRC-accepted frame carries is one of the originals, and when nothing
    /// was flagged every frame must have survived byte-identically. A flip
    /// that turns the version byte into another version's is refused.
    #[test]
    fn segment_bit_flip_recovers_or_flags(
        samples in prop::collection::vec((0i64..10_000, -1e6f64..1e6), 1..30),
        flip in 0usize..1_000_000,
    ) {
        let path = case_path("flip");
        let (_, keys) = snapshot_of(&samples, &path);
        let clean = manic_tsdb::segment::scan(&path, 0).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();

        let scan = match manic_tsdb::segment::scan_with(&manic_vfs::RealVfs, &path, 0, true) {
            Ok(scan) => scan,
            Err(e) => {
                prop_assert!(manic_tsdb::segment::is_version_mismatch(&e), "{}", e);
                prop_assert!(bit / 8 < manic_tsdb::segment::HEADER_LEN as usize);
                std::fs::remove_file(&path).unwrap();
                return Ok(());
            }
        };
        prop_assert!(scan.records.len() <= clean.records.len());
        for (_, payload) in &scan.records {
            // A CRC-intact frame must still carry original data — a
            // flipped-yet-accepted payload would be silent corruption.
            if let Some(entries) = sample_entries(payload) {
                for (_, p) in entries {
                    prop_assert!(
                        samples.contains(&(p.t, p.v)),
                        "CRC accepted a mutated sample: ({}, {})", p.t, p.v
                    );
                }
            } else if let Some((b'K', def)) = payload.split_first() {
                let key = def
                    .get(4..)
                    .and_then(|tok| std::str::from_utf8(tok).ok())
                    .and_then(|tok| parse_key(tok).ok());
                prop_assert!(
                    key.is_some_and(|k| keys.contains(&k)),
                    "CRC accepted a mutated key definition"
                );
            } else {
                prop_assert!(false, "foreign frame surfaced: {:?}", payload);
            }
        }
        let flagged = scan.bad_header
            || scan.torn
            || !scan.quarantined.is_empty()
            || scan.records.len() < clean.records.len();
        if !flagged {
            prop_assert_eq!(
                &scan.records, &clean.records,
                "unflagged flip must leave every frame intact"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Columnar downsampling is value-identical to the seed's AoS
    /// collect-then-aggregate model, for every aggregate.
    #[test]
    fn downsample_matches_aos_reference(
        pts in prop::collection::vec((0i64..5_000, -1e6f64..1e6), 1..150),
        bin in 1i64..700,
        agg in arb_aggregate(),
        start in 0i64..2_000,
        len in 1i64..5_000,
    ) {
        let mut s = Series::new();
        for &(t, v) in &pts {
            s.push(t, v);
        }
        let end = start + len;
        // Reference: walk the stored points (insertion-stable sort order —
        // the order the old interleaved layout iterated in), bucket into
        // bins, aggregate each bucket as a collected Vec.
        let stored = s.all();
        let mut expected: Vec<(i64, f64)> = Vec::new();
        let mut bin_start = start;
        while bin_start < end {
            let bin_end = (bin_start + bin).min(end);
            let vals: Vec<f64> = stored
                .iter()
                .filter(|p| p.t >= bin_start && p.t < bin_end)
                .map(|p| p.v)
                .collect();
            if !vals.is_empty() {
                expected.push((bin_start, aos_reference_aggregate(&vals, agg)));
            }
            bin_start += bin;
        }
        let got: Vec<(i64, f64)> =
            s.downsample(start, end, bin, agg).iter().map(|p| (p.t, p.v)).collect();
        prop_assert_eq!(got.len(), expected.len());
        for (&(gt, gv), &(et, ev)) in got.iter().zip(&expected) {
            prop_assert_eq!(gt, et);
            prop_assert_eq!(
                gv.to_bits(), ev.to_bits(),
                "bin {}: columnar {} != reference {} ({:?})", gt, gv, ev, agg
            );
        }
        // The dense variant must agree bin-for-bin with the sparse one.
        let dense = s.downsample_dense(start, end, bin, agg);
        let filled: Vec<(i64, f64)> = dense
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (start + i as i64 * bin, v)))
            .collect();
        prop_assert_eq!(filled, got);
    }

    /// `downsample_dense_into` / `quality_dense_into` are pure functions of
    /// the window — a dirty reused buffer must not leak previous contents.
    #[test]
    fn dense_into_ignores_buffer_residue(
        pts in prop::collection::vec((0i64..3_000, 0.0f64..100.0), 0..60),
        windows in prop::collection::vec((0i64..3_000, 1i64..600, 1u8..16), 0..8),
        bin in 1i64..400,
        agg in arb_aggregate(),
    ) {
        let store = Store::new();
        let key = SeriesKey::with_tags("m", &[("a", "b")]);
        for &(t, v) in &pts {
            store.write(&key, t, v);
        }
        for &(f, len, fl) in &windows {
            store.annotate(&key, f, f + len, fl);
        }
        let fresh_bins = store.downsample_dense(&key, 0, 3_000, bin, agg);
        let fresh_qual = store.quality_dense(&key, 0, 3_000, bin);
        // Dirty buffers: wrong length, stale contents.
        let mut bins = vec![Some(f64::MAX); 7];
        let mut qual = vec![0xffu8; 1_000];
        store.downsample_dense_into(&key, 0, 3_000, bin, agg, &mut bins);
        store.quality_dense_into(&key, 0, 3_000, bin, &mut qual);
        prop_assert_eq!(bins, fresh_bins);
        prop_assert_eq!(qual, fresh_qual);
    }

    /// Dense downsampling covers every bin exactly once.
    #[test]
    fn dense_bins_cover_window(
        pts in prop::collection::vec((0i64..5000, 0.0f64..10.0), 0..50),
        bin in 1i64..500,
    ) {
        let store = Store::new();
        let key = SeriesKey::with_tags("m", &[("a", "b")]);
        for &(t, v) in &pts {
            store.write(&key, t, v);
        }
        let dense = store.downsample_dense(&key, 0, 5000, bin, Aggregate::Min);
        let expected_bins = (5000 + bin - 1) / bin;
        prop_assert_eq!(dense.len() as i64, expected_bins);
        let filled = dense.iter().filter(|b| b.is_some()).count();
        let sparse = store.downsample(&key, 0, 5000, bin, Aggregate::Min).len();
        prop_assert_eq!(filled, sparse);
    }
}
