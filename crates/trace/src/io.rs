//! Trace serialization: JSON, CSV and a compact binary format.
//!
//! The codec surface for whole [`SessionTrace`] bundles is the
//! [`TraceFormat`] enum plus four `SessionTrace` methods defined here:
//!
//! * [`SessionTrace::read_from`] / [`SessionTrace::write_to`] move a
//!   trace through any `Read` / `Write` in an explicit [`TraceFormat`]
//!   (`Json` for interchange, `Binary` — `ECAS` magic + version — for
//!   large archives);
//! * [`SessionTrace::load`] / [`SessionTrace::save`] do the same against
//!   a path, autodetecting the format from the extension via
//!   [`TraceFormat::from_path`].
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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ecas_types::units::{Dbm, Mbps, MegaBytes, MetersPerSec2, Seconds, Watts};

use crate::sample::{AccelSample, NetworkSample, PowerSample, SignalSample};
use crate::series::{TimeSeries, Timestamped};
use crate::session::{SessionTrace, TraceMeta};

/// Magic prefix of the binary trace format.
pub(crate) const BINARY_MAGIC: &[u8; 4] = b"ECAS";
/// Current version of the binary trace format.
pub(crate) const BINARY_VERSION: u8 = 1;

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

/// The on-disk encodings a [`SessionTrace`] bundle supports.
///
/// # Examples
///
/// ```
/// use ecas_trace::io::TraceFormat;
///
/// assert_eq!(TraceFormat::from_path("walk.bin"), TraceFormat::Binary);
/// assert_eq!(TraceFormat::from_path("walk.json"), TraceFormat::Json);
/// assert_eq!(TraceFormat::from_path("no-extension"), TraceFormat::Json);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Pretty-printed JSON — the human-readable interchange format.
    Json,
    /// The compact little-endian binary format (`ECAS` magic + version).
    Binary,
}

impl TraceFormat {
    /// Picks the format from a path's extension: `.bin` means
    /// [`TraceFormat::Binary`], everything else (including no extension)
    /// is [`TraceFormat::Json`].
    #[must_use]
    pub fn from_path<P: AsRef<Path>>(path: P) -> Self {
        match path.as_ref().extension().and_then(|e| e.to_str()) {
            Some("bin") => TraceFormat::Binary,
            _ => TraceFormat::Json,
        }
    }

    /// Short lowercase label ("json" / "binary").
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TraceFormat::Json => "json",
            TraceFormat::Binary => "binary",
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

fn write_json<W: Write>(writer: W, session: &SessionTrace) -> Result<(), TraceIoError> {
    serde_json::to_writer_pretty(writer, session)?;
    Ok(())
}

fn read_json<R: Read>(reader: R) -> Result<SessionTrace, TraceIoError> {
    Ok(serde_json::from_reader(reader)?)
}

impl SessionTrace {
    /// Reads a trace from `reader` in the given `format`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on I/O failure or a malformed payload
    /// (including out-of-order samples).
    pub fn read_from<R: Read>(mut reader: R, format: TraceFormat) -> Result<Self, TraceIoError> {
        match format {
            TraceFormat::Json => read_json(reader),
            TraceFormat::Binary => {
                let mut data = Vec::new();
                reader.read_to_end(&mut data)?;
                decode_binary(&data)
            }
        }
    }

    /// Writes the trace to `writer` in the given `format`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on I/O or serialization failure.
    pub fn write_to<W: Write>(&self, mut writer: W, format: TraceFormat) -> Result<(), TraceIoError> {
        match format {
            TraceFormat::Json => write_json(writer, self),
            TraceFormat::Binary => {
                writer.write_all(&encode_binary(self))?;
                Ok(())
            }
        }
    }

    /// Loads a trace from `path`, autodetecting the format from the
    /// extension ([`TraceFormat::from_path`]).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] when the file cannot be opened or its
    /// payload is malformed.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, TraceIoError> {
        let format = TraceFormat::from_path(&path);
        let file = File::open(path)?;
        Self::read_from(BufReader::new(file), format)
    }

    /// Saves the trace to `path`, autodetecting the format from the
    /// extension ([`TraceFormat::from_path`]).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] when the file cannot be created or
    /// written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), TraceIoError> {
        let format = TraceFormat::from_path(&path);
        let file = File::create(path)?;
        let mut writer = BufWriter::new(file);
        self.write_to(&mut writer, format)?;
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

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String, TraceIoError> {
    if buf.remaining() < 4 {
        return Err(TraceIoError::Corrupt("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(TraceIoError::Corrupt("truncated string payload".into()));
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec())
        .map_err(|e| TraceIoError::Corrupt(format!("invalid utf-8 string: {e}")))
}

fn get_f64(buf: &mut Bytes, what: &str) -> Result<f64, TraceIoError> {
    if buf.remaining() < 8 {
        return Err(TraceIoError::Corrupt(format!("truncated {what}")));
    }
    Ok(buf.get_f64_le())
}

fn encode_binary(session: &SessionTrace) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(BINARY_MAGIC);
    buf.put_u8(BINARY_VERSION);

    let meta = session.meta();
    put_string(&mut buf, &meta.name);
    buf.put_f64_le(meta.video_length.value());
    buf.put_f64_le(meta.data_size.value());
    buf.put_f64_le(meta.avg_vibration.value());
    put_string(&mut buf, &meta.description);
    match meta.seed {
        Some(seed) => {
            buf.put_u8(1);
            buf.put_u64_le(seed);
        }
        None => buf.put_u8(0),
    }

    buf.put_u32_le(session.network().len() as u32);
    for s in session.network().iter() {
        buf.put_f64_le(s.time.value());
        buf.put_f64_le(s.throughput.value());
    }
    buf.put_u32_le(session.signal().len() as u32);
    for s in session.signal().iter() {
        buf.put_f64_le(s.time.value());
        buf.put_f64_le(s.dbm.value());
    }
    buf.put_u32_le(session.accel().len() as u32);
    for s in session.accel().iter() {
        buf.put_f64_le(s.time.value());
        buf.put_f64_le(s.x);
        buf.put_f64_le(s.y);
        buf.put_f64_le(s.z);
    }

    buf.freeze()
}

fn decode_binary(data: &[u8]) -> Result<SessionTrace, TraceIoError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 5 {
        return Err(TraceIoError::Corrupt("payload shorter than header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != BINARY_MAGIC {
        return Err(TraceIoError::Corrupt(format!(
            "bad magic {magic:?}, want {BINARY_MAGIC:?}"
        )));
    }
    let version = buf.get_u8();
    if version != BINARY_VERSION {
        return Err(TraceIoError::Corrupt(format!(
            "unsupported version {version}, want {BINARY_VERSION}"
        )));
    }

    let name = get_string(&mut buf)?;
    let video_length = Seconds::try_new(get_f64(&mut buf, "video length")?)
        .map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
    let data_size = MegaBytes::try_new(get_f64(&mut buf, "data size")?)
        .map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
    let avg_vibration = MetersPerSec2::try_new(get_f64(&mut buf, "avg vibration")?)
        .map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
    let description = get_string(&mut buf)?;
    if buf.remaining() < 1 {
        return Err(TraceIoError::Corrupt("truncated seed flag".into()));
    }
    let seed = match buf.get_u8() {
        0 => None,
        1 => {
            if buf.remaining() < 8 {
                return Err(TraceIoError::Corrupt("truncated seed".into()));
            }
            Some(buf.get_u64_le())
        }
        other => return Err(TraceIoError::Corrupt(format!("invalid seed flag {other}"))),
    };

    let meta = TraceMeta {
        name,
        video_length,
        data_size,
        avg_vibration,
        description,
        seed,
    };

    fn get_count(buf: &mut Bytes, what: &str) -> Result<usize, TraceIoError> {
        if buf.remaining() < 4 {
            return Err(TraceIoError::Corrupt(format!("truncated {what} count")));
        }
        Ok(buf.get_u32_le() as usize)
    }

    let n = get_count(&mut buf, "network")?;
    let mut network = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Seconds::try_new(get_f64(&mut buf, "network time")?)
            .map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
        let thr = Mbps::try_new(get_f64(&mut buf, "throughput")?)
            .map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
        network.push(NetworkSample::new(t, thr));
    }

    let n = get_count(&mut buf, "signal")?;
    let mut signal = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Seconds::try_new(get_f64(&mut buf, "signal time")?)
            .map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
        let dbm = Dbm::try_new(get_f64(&mut buf, "signal dbm")?)
            .map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
        signal.push(SignalSample::new(t, dbm));
    }

    let n = get_count(&mut buf, "accel")?;
    let mut accel = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Seconds::try_new(get_f64(&mut buf, "accel time")?)
            .map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
        let x = get_f64(&mut buf, "accel x")?;
        let y = get_f64(&mut buf, "accel y")?;
        let z = get_f64(&mut buf, "accel z")?;
        if x.is_nan() || y.is_nan() || z.is_nan() {
            return Err(TraceIoError::Corrupt("NaN accelerometer axis".into()));
        }
        accel.push(AccelSample::new(t, x, y, z));
    }

    let network = TimeSeries::new(network).map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
    let signal = TimeSeries::new(signal).map_err(|e| TraceIoError::Corrupt(e.to_string()))?;
    let accel = TimeSeries::new(accel).map_err(|e| TraceIoError::Corrupt(e.to_string()))?;

    SessionTrace::new(meta, network, signal, accel)
        .map_err(|e| TraceIoError::Corrupt(e.to_string()))
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
        s.write_to(&mut buf, TraceFormat::Json).unwrap();
        let back = SessionTrace::read_from(buf.as_slice(), TraceFormat::Json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn format_from_path_autodetects() {
        assert_eq!(TraceFormat::from_path("a/b/trace.bin"), TraceFormat::Binary);
        assert_eq!(TraceFormat::from_path("trace.json"), TraceFormat::Json);
        assert_eq!(TraceFormat::from_path("trace.csv"), TraceFormat::Json);
        assert_eq!(TraceFormat::from_path("trace"), TraceFormat::Json);
        assert_eq!(TraceFormat::Binary.label(), "binary");
        assert_eq!(TraceFormat::Json.to_string(), "json");
    }

    #[test]
    fn load_save_roundtrip_both_formats() {
        let s = session();
        let dir = std::env::temp_dir().join(format!("ecas-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["trace.json", "trace.bin"] {
            let path = dir.join(name);
            s.save(&path).unwrap();
            let back = SessionTrace::load(&path).unwrap();
            assert_eq!(s, back, "{name} did not roundtrip");
        }
        // The two encodings really differ on disk.
        let json_len = std::fs::metadata(dir.join("trace.json")).unwrap().len();
        let bin_len = std::fs::metadata(dir.join("trace.bin")).unwrap().len();
        assert!(bin_len * 2 < json_len);
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

    #[test]
    fn binary_roundtrip() {
        let s = session();
        let mut bytes = Vec::new();
        s.write_to(&mut bytes, TraceFormat::Binary).unwrap();
        let back = SessionTrace::read_from(bytes.as_slice(), TraceFormat::Binary).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn binary_rejects_bad_magic_and_version() {
        let s = session();
        let mut bytes = Vec::new();
        s.write_to(&mut bytes, TraceFormat::Binary).unwrap();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SessionTrace::read_from(bad.as_slice(), TraceFormat::Binary).is_err());

        let mut bad = bytes.clone();
        bad[4] = 200;
        assert!(SessionTrace::read_from(bad.as_slice(), TraceFormat::Binary).is_err());
    }

    #[test]
    fn binary_rejects_truncation_everywhere() {
        let s = session();
        let mut bytes = Vec::new();
        s.write_to(&mut bytes, TraceFormat::Binary).unwrap();
        // Chop the payload at several points; every prefix must fail
        // cleanly rather than panic.
        for cut in [0, 3, 5, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SessionTrace::read_from(&bytes[..cut], TraceFormat::Binary).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let s = session();
        let mut json = Vec::new();
        s.write_to(&mut json, TraceFormat::Json).unwrap();
        let mut bin = Vec::new();
        s.write_to(&mut bin, TraceFormat::Binary).unwrap();
        assert!(
            bin.len() * 2 < json.len(),
            "binary should be < half of JSON"
        );
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
