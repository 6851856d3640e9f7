//! Property-based tests for time-series invariants and trace codecs.

use ecas_trace::io::{read_csv, write_csv};
use ecas_trace::record::{RecordContainer, RecordError};
use ecas_trace::sample::NetworkSample;
use ecas_trace::series::TimeSeries;
use ecas_trace::synth::context::ContextSchedule;
use ecas_trace::synth::SessionGenerator;
use ecas_types::units::{Mbps, Seconds};
use proptest::prelude::*;

fn sorted_times() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1e5, 1..50).prop_map(|mut v| {
        v.sort_by(f64::total_cmp);
        v
    })
}

proptest! {
    #[test]
    fn series_accepts_any_sorted_input(times in sorted_times()) {
        let samples: Vec<NetworkSample> = times
            .iter()
            .map(|&t| NetworkSample::new(Seconds::new(t), Mbps::new(1.0)))
            .collect();
        let series = TimeSeries::new(samples).unwrap();
        prop_assert_eq!(series.len(), times.len());
    }

    #[test]
    fn at_or_before_matches_linear_scan(times in sorted_times(), query in 0.0f64..1.1e5) {
        let samples: Vec<NetworkSample> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| NetworkSample::new(Seconds::new(t), Mbps::new(i as f64 + 1.0)))
            .collect();
        let series = TimeSeries::new(samples.clone()).unwrap();
        let expected = samples
            .iter()
            .rev()
            .find(|s| s.time.value() <= query);
        let got = series.at_or_before(Seconds::new(query));
        match (expected, got) {
            (None, None) => {}
            (Some(e), Some(g)) => prop_assert_eq!(e.time, g.time),
            (e, g) => prop_assert!(false, "mismatch: {:?} vs {:?}", e, g),
        }
    }

    #[test]
    fn window_contents_are_exactly_in_range(times in sorted_times(), a in 0.0f64..1e5, b in 0.0f64..1e5) {
        let (from, to) = if a <= b { (a, b) } else { (b, a) };
        let samples: Vec<NetworkSample> = times
            .iter()
            .map(|&t| NetworkSample::new(Seconds::new(t), Mbps::new(1.0)))
            .collect();
        let series = TimeSeries::new(samples).unwrap();
        let window = series.window(Seconds::new(from), Seconds::new(to));
        for s in window {
            prop_assert!(s.time.value() >= from && s.time.value() < to);
        }
        let expected = times.iter().filter(|&&t| t >= from && t < to).count();
        prop_assert_eq!(window.len(), expected);
    }

    #[test]
    fn csv_roundtrip_any_network_series(times in sorted_times()) {
        let samples: Vec<NetworkSample> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| NetworkSample::new(Seconds::new(t), Mbps::new((i % 7) as f64 + 0.25)))
            .collect();
        let series = TimeSeries::new(samples).unwrap();
        let mut buf = Vec::new();
        write_csv(&mut buf, &series).unwrap();
        let back: TimeSeries<NetworkSample> = read_csv(buf.as_slice()).unwrap();
        prop_assert_eq!(series, back);
    }

    #[test]
    fn record_container_roundtrip_arbitrary_sections(
        sections in proptest::collection::vec(
            (0u8..=255, proptest::collection::vec(any::<u8>(), 0..200)),
            0..8,
        )
    ) {
        let mut container = RecordContainer::new();
        for (tag, payload) in &sections {
            container.push(*tag, payload.clone());
        }
        let bytes = container.encode();
        let back = RecordContainer::decode(&bytes).unwrap();
        prop_assert_eq!(back.sections().len(), sections.len());
        for ((tag, payload), section) in sections.iter().zip(back.sections()) {
            prop_assert_eq!(*tag, section.tag);
            prop_assert_eq!(payload, &section.payload);
        }
        // Deterministic encoding.
        prop_assert_eq!(&bytes, &back.encode());
    }

    #[test]
    fn record_container_rejects_any_truncation_or_flip(
        payload in proptest::collection::vec(any::<u8>(), 1..100),
        cut_frac in 0.0f64..1.0,
        flip in 0usize..4096,
    ) {
        let mut container = RecordContainer::new();
        container.push(7, payload);
        let bytes = container.encode();
        // Truncation at any point is a typed error, never a panic.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(RecordContainer::decode(&bytes[..cut]).is_err());
        }
        // Flipping any single byte is detected (content hash or an
        // earlier structural check).
        let mut tampered = bytes.clone();
        let i = flip % tampered.len();
        tampered[i] ^= 0x01;
        let err = RecordContainer::decode(&tampered).unwrap_err();
        prop_assert!(matches!(
            err,
            RecordError::BadMagic { .. }
                | RecordError::UnsupportedVersion { .. }
                | RecordError::HashMismatch { .. }
                | RecordError::Truncated { .. }
                | RecordError::VarintOverflow
                | RecordError::Corrupt(_)
        ));
    }

    #[test]
    fn generated_sessions_always_cover_duration(seed in 0u64..100, secs in 5.0f64..60.0) {
        let session = SessionGenerator::new(
            "cov",
            ContextSchedule::commute(Seconds::new(secs)),
            Seconds::new(secs),
            seed,
        )
        .generate();
        prop_assert!(session.network().duration().value() >= secs);
        prop_assert!(session.signal().duration().value() >= secs);
        prop_assert!(session.accel().duration().value() >= secs - 0.05);
        // Throughput strictly positive everywhere.
        for s in session.network().iter() {
            prop_assert!(s.throughput.value() > 0.0);
        }
    }
}
