//! Trace serialization: JSON and CSV.
//!
//! Whole [`SessionTrace`] bundles travel as pretty-printed JSON, the
//! interchange format, through four `SessionTrace` methods defined here:
//!
//! * [`SessionTrace::read_from`] / [`SessionTrace::write_to`] move a
//!   trace through any `Read` / `Write`;
//! * [`SessionTrace::load`] / [`SessionTrace::save`] do the same against
//!   a path.
//!
//! The one binary format is the ECASR session record
//! ([`crate::record`]), which regenerates its trace from a recipe.
//!
//! ```
//! use ecas_trace::synth::context::{Context, ContextSchedule};
//! use ecas_trace::synth::SessionGenerator;
//! use ecas_trace::SessionTrace;
//! use ecas_types::units::Seconds;
//!
//! let schedule = ContextSchedule::constant(Context::Walking);
//! let trace = SessionGenerator::new("walk", schedule, Seconds::new(10.0), 1).generate();
//! let mut json = Vec::new();
//! trace.write_to(&mut json)?;
//! assert_eq!(SessionTrace::read_from(json.as_slice())?, trace);
//! # Ok::<(), ecas_trace::TraceIoError>(())
//! ```
//!
//! CSV ([`write_csv`] / [`read_csv`]) handles individual channels in a
//! spreadsheet-friendly layout, and [`read_mahimahi`] imports external
//! Mahimahi packet traces.
//!
//! Reader/writer functions take `R: Read` / `W: Write` by value; pass
//! `&mut reader` when the caller needs to keep using the stream afterwards.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use ecas_types::units::{Dbm, Mbps, Seconds, Watts};

use crate::sample::{AccelSample, NetworkSample, PowerSample, SignalSample};
use crate::series::{TimeSeries, Timestamped};
use crate::session::SessionTrace;

/// Error produced by trace I/O.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// The payload did not conform to the expected format.
    Corrupt(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Json(e) => write!(f, "trace json failed: {e}"),
            TraceIoError::Corrupt(msg) => write!(f, "corrupt trace payload: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Json(e) => Some(e),
            TraceIoError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        TraceIoError::Json(e)
    }
}

impl SessionTrace {
    /// Reads a JSON trace from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on I/O failure or a malformed payload
    /// (including out-of-order samples).
    pub fn read_from<R: Read>(reader: R) -> Result<Self, TraceIoError> {
        Ok(serde_json::from_reader(reader)?)
    }

    /// Writes the trace to `writer` as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on I/O or serialization failure.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), TraceIoError> {
        serde_json::to_writer_pretty(writer, self)?;
        Ok(())
    }

    /// Loads a JSON trace from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] when the file cannot be opened or its
    /// payload is malformed.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, TraceIoError> {
        Self::read_from(BufReader::new(File::open(path)?))
    }

    /// Saves the trace to `path` as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] when the file cannot be created or
    /// written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), TraceIoError> {
        let mut writer = BufWriter::new(File::create(path)?);
        self.write_to(&mut writer)?;
        writer.flush()?;
        Ok(())
    }
}

/// A sample that can be encoded to / decoded from a CSV row.
// ecas-lint: allow(pub-surface, reason = "bound of the public CSV read/write functions")
pub trait CsvRecord: Sized {
    /// The header row for this sample type.
    fn csv_header() -> &'static str;
    /// Encodes the sample as one CSV row (no trailing newline).
    fn to_csv_row(&self) -> String;
    /// Decodes a sample from one CSV row.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Corrupt`] when the row does not parse.
    fn from_csv_row(row: &str) -> Result<Self, TraceIoError>;
}

fn parse_f64(field: &str, what: &str) -> Result<f64, TraceIoError> {
    field
        .trim()
        .parse::<f64>()
        .map_err(|e| TraceIoError::Corrupt(format!("bad {what} field {field:?}: {e}")))
}

fn split_fields(row: &str, expected: usize) -> Result<Vec<&str>, TraceIoError> {
    let fields: Vec<&str> = row.split(',').collect();
    if fields.len() != expected {
        return Err(TraceIoError::Corrupt(format!(
            "expected {expected} fields, found {} in {row:?}",
            fields.len()
        )));
    }
    Ok(fields)
}

impl CsvRecord for NetworkSample {
    fn csv_header() -> &'static str {
        "time_s,throughput_mbps"
    }
    fn to_csv_row(&self) -> String {
        format!("{},{}", self.time.value(), self.throughput.value())
    }
    fn from_csv_row(row: &str) -> Result<Self, TraceIoError> {
        let f = split_fields(row, 2)?;
        Ok(NetworkSample::new(
            Seconds::try_new(parse_f64(f[0], "time")?)
                .map_err(|e| TraceIoError::Corrupt(e.to_string()))?,
            Mbps::try_new(parse_f64(f[1], "throughput")?)
                .map_err(|e| TraceIoError::Corrupt(e.to_string()))?,
        ))
    }
}

impl CsvRecord for SignalSample {
    fn csv_header() -> &'static str {
        "time_s,signal_dbm"
    }
    fn to_csv_row(&self) -> String {
        format!("{},{}", self.time.value(), self.dbm.value())
    }
    fn from_csv_row(row: &str) -> Result<Self, TraceIoError> {
        let f = split_fields(row, 2)?;
        Ok(SignalSample::new(
            Seconds::try_new(parse_f64(f[0], "time")?)
                .map_err(|e| TraceIoError::Corrupt(e.to_string()))?,
            Dbm::try_new(parse_f64(f[1], "signal")?)
                .map_err(|e| TraceIoError::Corrupt(e.to_string()))?,
        ))
    }
}

impl CsvRecord for AccelSample {
    fn csv_header() -> &'static str {
        "time_s,ax,ay,az"
    }
    fn to_csv_row(&self) -> String {
        format!("{},{},{},{}", self.time.value(), self.x, self.y, self.z)
    }
    fn from_csv_row(row: &str) -> Result<Self, TraceIoError> {
        let f = split_fields(row, 4)?;
        let t = Seconds::try_new(parse_f64(f[0], "time")?)
            .map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
        let (x, y, z) = (
            parse_f64(f[1], "ax")?,
            parse_f64(f[2], "ay")?,
            parse_f64(f[3], "az")?,
        );
        if x.is_nan() || y.is_nan() || z.is_nan() {
            return Err(TraceIoError::Corrupt("NaN accelerometer axis".into()));
        }
        Ok(AccelSample::new(t, x, y, z))
    }
}

impl CsvRecord for PowerSample {
    fn csv_header() -> &'static str {
        "time_s,power_w"
    }
    fn to_csv_row(&self) -> String {
        format!("{},{}", self.time.value(), self.power.value())
    }
    fn from_csv_row(row: &str) -> Result<Self, TraceIoError> {
        let f = split_fields(row, 2)?;
        Ok(PowerSample::new(
            Seconds::try_new(parse_f64(f[0], "time")?)
                .map_err(|e| TraceIoError::Corrupt(e.to_string()))?,
            Watts::try_new(parse_f64(f[1], "power")?)
                .map_err(|e| TraceIoError::Corrupt(e.to_string()))?,
        ))
    }
}

/// Writes a channel as CSV with a header row.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure.
pub fn write_csv<W: Write, T>(mut writer: W, series: &TimeSeries<T>) -> Result<(), TraceIoError>
where
    T: CsvRecord + Timestamped + Clone,
{
    writeln!(writer, "{}", T::csv_header())?;
    for sample in series.iter() {
        writeln!(writer, "{}", sample.to_csv_row())?;
    }
    Ok(())
}

/// Reads a channel from CSV produced by [`write_csv`].
///
/// # Errors
///
/// Returns [`TraceIoError::Corrupt`] when the header or any row is
/// malformed, the payload is empty, or samples are out of order.
pub fn read_csv<R: Read, T>(mut reader: R) -> Result<TimeSeries<T>, TraceIoError>
where
    T: CsvRecord + Timestamped + Clone,
{
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let mut lines = text.lines();
    match lines.next() {
        Some(header) if header.trim() == T::csv_header() => {}
        Some(header) => {
            return Err(TraceIoError::Corrupt(format!(
                "unexpected csv header {header:?}, want {:?}",
                T::csv_header()
            )))
        }
        None => return Err(TraceIoError::Corrupt("empty csv payload".into())),
    }
    let mut samples = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        samples.push(T::from_csv_row(line)?);
    }
    TimeSeries::new(samples).map_err(|e| TraceIoError::Corrupt(e.to_string()))
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::synth::context::{Context, ContextSchedule};
    use crate::synth::SessionGenerator;

    fn session() -> SessionTrace {
        SessionGenerator::new(
            "io-test",
            ContextSchedule::constant(Context::Walking),
            Seconds::new(12.0),
            99,
        )
        .generate()
    }

    #[test]
    fn json_roundtrip() {
        let s = session();
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        let back = SessionTrace::read_from(buf.as_slice()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn load_save_roundtrip_both_formats() {
        let s = session();
        let dir = std::env::temp_dir().join(format!("ecas-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The whole trace as JSON, whatever the extension …
        for name in ["trace.json", "trace"] {
            let path = dir.join(name);
            s.save(&path).unwrap();
            let back = SessionTrace::load(&path).unwrap();
            assert_eq!(s, back, "{name} did not roundtrip");
        }
        // … and a channel as a CSV file.
        let path = dir.join("accel.csv");
        write_csv(File::create(&path).unwrap(), s.accel()).unwrap();
        let back: TimeSeries<AccelSample> = read_csv(File::open(&path).unwrap()).unwrap();
        assert_eq!(s.accel(), &back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = SessionTrace::load("/nonexistent/ecas-io-test.json").unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn csv_roundtrip_all_channel_types() {
        let s = session();
        let mut buf = Vec::new();
        write_csv(&mut buf, s.network()).unwrap();
        let back: TimeSeries<NetworkSample> = read_csv(buf.as_slice()).unwrap();
        assert_eq!(s.network(), &back);

        let mut buf = Vec::new();
        write_csv(&mut buf, s.signal()).unwrap();
        let back: TimeSeries<SignalSample> = read_csv(buf.as_slice()).unwrap();
        assert_eq!(s.signal(), &back);

        let mut buf = Vec::new();
        write_csv(&mut buf, s.accel()).unwrap();
        let back: TimeSeries<AccelSample> = read_csv(buf.as_slice()).unwrap();
        assert_eq!(s.accel(), &back);
    }

    #[test]
    fn csv_rejects_wrong_header_and_bad_rows() {
        let bad_header = "nope,nope\n1,2\n";
        assert!(read_csv::<_, NetworkSample>(bad_header.as_bytes()).is_err());

        let bad_row = "time_s,throughput_mbps\n1,abc\n";
        assert!(read_csv::<_, NetworkSample>(bad_row.as_bytes()).is_err());

        let wrong_arity = "time_s,throughput_mbps\n1\n";
        assert!(read_csv::<_, NetworkSample>(wrong_arity.as_bytes()).is_err());
    }
}

/// Largest bin count [`read_mahimahi`] will allocate. At the default
/// 1-second bin width this is a ~23-day trace — far beyond any real
/// Mahimahi capture (they span minutes) while keeping the `counts`
/// vector under ~16 MiB even for hostile input.
pub const MAX_MAHIMAHI_BINS: usize = 2_000_000;

/// Parses a Mahimahi-style uplink/downlink trace into a throughput
/// channel.
///
/// Mahimahi records one line per 1500-byte MTU packet-delivery
/// opportunity, each line holding the opportunity's timestamp in
/// milliseconds. The throughput over a window is therefore
/// `opportunities * 1500 * 8 / window` bits. This importer bins the
/// opportunities into `bin`-second windows and emits one
/// [`NetworkSample`] per bin — the standard preprocessing used by
/// trace-driven ABR studies.
///
/// Blank lines are skipped. Timestamps may be unsorted (Mahimahi files
/// are sorted, but we tolerate noise).
///
/// # Errors
///
/// Returns [`TraceIoError::Corrupt`] on unparsable lines, an empty
/// payload, or a trace whose horizon would require more than
/// [`MAX_MAHIMAHI_BINS`] bins — a single far-future timestamp must not
/// translate into a multi-gigabyte allocation.
pub fn read_mahimahi<R: Read>(
    mut reader: R,
    bin: Seconds,
) -> Result<TimeSeries<NetworkSample>, TraceIoError> {
    assert!(!bin.is_zero(), "bin width must be positive");
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let mut stamps_ms: Vec<f64> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ms: f64 = line
            .parse()
            .map_err(|e| TraceIoError::Corrupt(format!("bad mahimahi line {}: {e}", lineno + 1)))?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(TraceIoError::Corrupt(format!(
                "invalid mahimahi timestamp {ms} on line {}",
                lineno + 1
            )));
        }
        stamps_ms.push(ms);
    }
    if stamps_ms.is_empty() {
        return Err(TraceIoError::Corrupt("empty mahimahi payload".into()));
    }
    ecas_types::float::total_sort(&mut stamps_ms);

    let bin_s = bin.value();
    let horizon = stamps_ms[stamps_ms.len() - 1] / 1000.0;
    let raw_bins = (horizon / bin_s).floor() + 1.0;
    if !raw_bins.is_finite() || raw_bins > MAX_MAHIMAHI_BINS as f64 {
        return Err(TraceIoError::Corrupt(format!(
            "mahimahi horizon {horizon:.0}s at bin width {bin_s}s needs {raw_bins:.0} bins \
             (max {MAX_MAHIMAHI_BINS}); trace has an implausible far-future timestamp"
        )));
    }
    let n_bins = raw_bins as usize;
    let mut counts = vec![0usize; n_bins];
    for &ms in &stamps_ms {
        let idx = ((ms / 1000.0) / bin_s) as usize;
        counts[idx.min(n_bins - 1)] += 1;
    }
    let samples: Vec<NetworkSample> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            // c packets of 1500 bytes per bin.
            let mbps = c as f64 * 1500.0 * 8.0 / 1e6 / bin_s;
            NetworkSample::new(Seconds::new(i as f64 * bin_s), Mbps::new(mbps))
        })
        .collect();
    TimeSeries::new(samples).map_err(|e| TraceIoError::Corrupt(e.to_string()))
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod mahimahi_tests {
    use super::*;

    #[test]
    fn constant_rate_trace_parses() {
        // One packet per millisecond = 1500 B/ms = 12 Mbps.
        let text: String = (0..5000).map(|ms| format!("{ms}\n")).collect();
        let series = read_mahimahi(text.as_bytes(), Seconds::new(1.0)).unwrap();
        assert_eq!(series.len(), 5);
        for s in series.iter().take(4) {
            assert!(
                (s.throughput.value() - 12.0).abs() < 0.1,
                "{}",
                s.throughput
            );
        }
    }

    #[test]
    fn bursty_trace_has_distinct_bins() {
        // 1000 opportunities in second 0, none in second 1, 100 in second 2.
        let mut text = String::new();
        for i in 0..1000 {
            text.push_str(&format!("{}\n", i % 1000));
        }
        for i in 0..100 {
            text.push_str(&format!("{}\n", 2000 + i));
        }
        let series = read_mahimahi(text.as_bytes(), Seconds::new(1.0)).unwrap();
        assert_eq!(series.len(), 3);
        assert!(series.as_slice()[0].throughput.value() > 10.0);
        assert_eq!(series.as_slice()[1].throughput.value(), 0.0);
        assert!((series.as_slice()[2].throughput.value() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_is_tolerated() {
        let text = "2500\n100\n1700\n900\n";
        let series = read_mahimahi(text.as_bytes(), Seconds::new(1.0)).unwrap();
        assert_eq!(series.len(), 3);
    }

    #[test]
    fn rejects_garbage_and_empty() {
        assert!(read_mahimahi("abc\n".as_bytes(), Seconds::new(1.0)).is_err());
        assert!(read_mahimahi("-5\n".as_bytes(), Seconds::new(1.0)).is_err());
        assert!(read_mahimahi("".as_bytes(), Seconds::new(1.0)).is_err());
    }

    /// Regression: a single far-future timestamp used to size the bin
    /// vector directly from the maximum stamp — `1e12` ms at a 1-second
    /// bin width asked for a multi-gigabyte allocation and aborted the
    /// process. Hostile external input must be rejected as `Corrupt`,
    /// not amplified into an OOM.
    #[test]
    fn far_future_timestamp_is_corrupt_not_oom() {
        // One normal packet, then one a billion seconds in the future.
        let text = "0\n1000000000000\n";
        let err = read_mahimahi(text.as_bytes(), Seconds::new(1.0)).unwrap_err();
        assert!(
            matches!(&err, TraceIoError::Corrupt(msg) if msg.contains("far-future")),
            "expected Corrupt(far-future), got {err:?}"
        );
        // Same guard against tiny bin widths blowing up the bin count.
        assert!(read_mahimahi("0\n3600000\n".as_bytes(), Seconds::new(1e-6)).is_err());
        // A trace right at the cap still parses.
        let ok_ms = (MAX_MAHIMAHI_BINS - 1) as f64 * 1000.0;
        let text = format!("0\n{ok_ms}\n");
        assert!(read_mahimahi(text.as_bytes(), Seconds::new(1.0)).is_ok());
    }
}
