//! Strobe-aligned power-waveform capture.
//!
//! The instrumented design's strobe generator gates accumulator updates,
//! so the `power_total` ports hold a *cumulative* raw energy reading at
//! every strobe boundary. A [`WaveformRecorder`] samples those raw
//! readings (per clock domain and, optionally, per component model)
//! into a [`PowerWaveform`] — the paper's mid-run power trace as a
//! first-class artifact.
//!
//! Samples store the raw `u64` accumulator values, not scaled floats,
//! so the waveform round-trips losslessly through its text format and
//! the energy integral can be made **bit-exact** against the engine's
//! cumulative readback: [`PowerWaveform::integral_fj`] replays the
//! exact `f64` operation order of `read_energy_fj` (per-port raw
//! readings summed in port order, then one multiply by `lsb` and one
//! by the strobe period).
//!
//! Long runs stay bounded via [`CaptureMode`]: `Decimate` keeps a
//! bounded, evenly-strided summary of the whole run by doubling its
//! stride each time the buffer fills — first and last samples are
//! always retained, so the integral invariant survives decimation.

use pe_util::hash::Fnv128;
use std::fmt;

/// What a waveform channel measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// A per-clock-domain `power_total` accumulator. Domain channels
    /// are disjoint, so they sum to the design's total energy and are
    /// the channels [`PowerWaveform::integral_fj`] integrates.
    Domain,
    /// A per-component model accumulator (diagnostic; overlaps domain
    /// totals, so excluded from the integral).
    Component,
}

impl ChannelKind {
    fn as_str(self) -> &'static str {
        match self {
            ChannelKind::Domain => "domain",
            ChannelKind::Component => "component",
        }
    }
}

/// One captured channel: a named accumulator port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// Port or component name the raw readings come from.
    pub name: String,
    /// Whether the channel is a domain total or a component diagnostic.
    pub kind: ChannelKind,
}

impl Channel {
    /// A domain-total channel.
    pub fn domain(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kind: ChannelKind::Domain,
        }
    }

    /// A per-component diagnostic channel.
    pub fn component(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kind: ChannelKind::Component,
        }
    }
}

/// One strobe-aligned sample: the cycle it was taken at and the raw
/// cumulative accumulator reading of every channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerSample {
    /// Simulation cycle the sample was taken at.
    pub cycle: u64,
    /// Raw cumulative accumulator value per channel, in channel order.
    pub raw: Vec<u64>,
}

/// Retention policy for captured samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Keep every sample.
    Unbounded,
    /// Keep at most `N` samples spanning the whole run: when the buffer
    /// fills, every other retained sample is dropped and the accept
    /// stride doubles. The first sample is always retained.
    Decimate(usize),
}

/// Errors from recording or parsing waveforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveformError {
    /// A sample's channel count did not match the recorder's channels.
    ChannelCount {
        /// Channels the recorder was built with.
        expected: usize,
        /// Channels the offending sample carried.
        got: usize,
    },
    /// The text form could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for WaveformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaveformError::ChannelCount { expected, got } => {
                write!(f, "sample has {got} channel(s), recorder has {expected}")
            }
            WaveformError::Parse { line, message } => {
                write!(f, "waveform parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for WaveformError {}

/// Where and how two waveforms first differ.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The channel lists differ (count, name, or kind).
    Channels {
        /// Channel count of the left waveform.
        left: usize,
        /// Channel count of the right waveform.
        right: usize,
    },
    /// One waveform has more samples; every shared sample matches.
    SampleCount {
        /// Sample count of the left waveform.
        left: usize,
        /// Sample count of the right waveform.
        right: usize,
    },
    /// Sample `index` was taken at different cycles.
    Cycle {
        /// Index of the first diverging sample.
        index: usize,
        /// Cycle of the left waveform's sample.
        left: u64,
        /// Cycle of the right waveform's sample.
        right: u64,
    },
    /// Sample `index` differs in one channel's raw value.
    Value {
        /// Index of the first diverging sample.
        index: usize,
        /// Cycle both samples were taken at.
        cycle: u64,
        /// Name of the first diverging channel.
        channel: String,
        /// Left raw reading.
        left: u64,
        /// Right raw reading.
        right: u64,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Channels { left, right } => {
                write!(f, "channel lists differ ({left} vs {right} channels)")
            }
            Divergence::SampleCount { left, right } => {
                write!(
                    f,
                    "sample counts differ ({left} vs {right}); shared prefix matches"
                )
            }
            Divergence::Cycle { index, left, right } => {
                write!(
                    f,
                    "first divergence at sample {index}: cycle {left} vs {right}"
                )
            }
            Divergence::Value {
                index,
                cycle,
                channel,
                left,
                right,
            } => {
                write!(
                    f,
                    "first divergence at sample {index} (cycle {cycle}), \
                     channel `{channel}`: {left} vs {right}"
                )
            }
        }
    }
}

/// A captured power waveform: channels, scaling, and samples.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerWaveform {
    /// Design the waveform was captured from.
    pub design: String,
    /// Captured channels, in raw-reading order.
    pub channels: Vec<Channel>,
    /// Energy per accumulator LSB in femtojoules (the instrumented
    /// format's `lsb()`).
    pub lsb_fj: f64,
    /// Strobe period the design was instrumented with, in cycles.
    pub strobe_period: u32,
    /// Sampling period in strobes (1 = every strobe boundary).
    pub sample_period: u32,
    /// The samples, in capture order.
    pub samples: Vec<PowerSample>,
}

impl PowerWaveform {
    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The waveform's energy integral in femtojoules.
    ///
    /// Because samples are cumulative raw readings, the integral is the
    /// per-channel delta between the last and first retained sample,
    /// summed over **domain** channels in channel order and scaled
    /// exactly like `InstrumentedDesign::read_energy_fj`:
    /// `sum(raw as f64) * lsb * strobe_period as f64`. When the first
    /// sample reads a freshly-reset design (all-zero accumulators),
    /// this equals the engine's cumulative readback **bit-exactly**.
    pub fn integral_fj(&self) -> f64 {
        let (first, last) = match (self.samples.first(), self.samples.last()) {
            (Some(f), Some(l)) => (f, l),
            _ => return 0.0,
        };
        let mut raw = 0.0f64;
        for (i, ch) in self.channels.iter().enumerate() {
            if ch.kind == ChannelKind::Domain {
                // Recorder-built waveforms are monotone per channel, but
                // `from_text` accepts arbitrary input: wrap (the u64
                // two's-complement delta, matching release semantics)
                // instead of panicking in debug builds, and treat a
                // short row as zero contribution.
                let (f, l) = match (first.raw.get(i), last.raw.get(i)) {
                    (Some(f), Some(l)) => (*f, *l),
                    _ => continue,
                };
                raw += l.wrapping_sub(f) as f64;
            }
        }
        raw * self.lsb_fj * self.strobe_period as f64
    }

    /// FNV-1a-128 digest over the retained samples (cycle and raw
    /// values, little-endian), as 32 hex characters.
    pub fn digest(&self) -> String {
        let mut h = Fnv128::new();
        self.update_digest(&mut h, 0, self.samples.len());
        h.hex()
    }

    /// Digests the half-open sample range `[from, to)` into `h`. The
    /// range is clamped to the retained samples (an inverted or
    /// out-of-bounds range digests nothing rather than panicking).
    pub fn update_digest(&self, h: &mut Fnv128, from: usize, to: usize) {
        let to = to.min(self.samples.len());
        let from = from.min(to);
        for sample in &self.samples[from..to] {
            h.update(&sample.cycle.to_le_bytes());
            for &raw in &sample.raw {
                h.update(&raw.to_le_bytes());
            }
        }
    }

    /// The first point where `self` and `other` differ, or `None` when
    /// they match sample-for-sample.
    pub fn first_divergence(&self, other: &PowerWaveform) -> Option<Divergence> {
        if self.channels != other.channels {
            return Some(Divergence::Channels {
                left: self.channels.len(),
                right: other.channels.len(),
            });
        }
        for (index, (a, b)) in self.samples.iter().zip(&other.samples).enumerate() {
            if a.cycle != b.cycle {
                return Some(Divergence::Cycle {
                    index,
                    left: a.cycle,
                    right: b.cycle,
                });
            }
            for (c, (&l, &r)) in a.raw.iter().zip(&b.raw).enumerate() {
                if l != r {
                    return Some(Divergence::Value {
                        index,
                        cycle: a.cycle,
                        channel: self.channels[c].name.clone(),
                        left: l,
                        right: r,
                    });
                }
            }
        }
        if self.samples.len() != other.samples.len() {
            return Some(Divergence::SampleCount {
                left: self.samples.len(),
                right: other.samples.len(),
            });
        }
        None
    }

    /// Serializes to the stable `pe-waveform v1` text format. The LSB
    /// scale is stored as raw `f64` bits so round-trips are lossless.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "pe-waveform v1");
        let _ = writeln!(out, "design {}", self.design);
        let _ = writeln!(out, "lsb_fj_bits {:016x}", self.lsb_fj.to_bits());
        let _ = writeln!(out, "strobe_period {}", self.strobe_period);
        let _ = writeln!(out, "sample_period {}", self.sample_period);
        for ch in &self.channels {
            let _ = writeln!(out, "channel {} {}", ch.kind.as_str(), ch.name);
        }
        let _ = writeln!(out, "digest_fnv128 {}", self.digest());
        let _ = writeln!(out, "samples {}", self.samples.len());
        for s in &self.samples {
            let _ = write!(out, "{}", s.cycle);
            for &raw in &s.raw {
                let _ = write!(out, " {raw}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses the `pe-waveform v1` text format.
    pub fn from_text(text: &str) -> Result<PowerWaveform, WaveformError> {
        let err = |line: usize, message: &str| WaveformError::Parse {
            line,
            message: message.to_string(),
        };
        let mut lines = text.lines().enumerate();
        let (n, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
        if header.trim() != "pe-waveform v1" {
            return Err(err(n + 1, "expected `pe-waveform v1` header"));
        }
        let mut design = String::new();
        let mut lsb_fj = 0.0f64;
        let mut strobe_period = 1u32;
        let mut sample_period = 1u32;
        let mut channels = Vec::new();
        let mut stated_digest = None;
        let mut samples = Vec::new();
        let mut expected_samples = None;
        for (i, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let lineno = i + 1;
            if expected_samples.is_some() {
                let mut fields = line.split_ascii_whitespace();
                let cycle = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| err(lineno, "bad sample cycle"))?;
                let raw: Vec<u64> = fields
                    .map(|f| f.parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err(lineno, "bad raw value"))?;
                if raw.len() != channels.len() {
                    return Err(WaveformError::Parse {
                        line: lineno,
                        message: format!(
                            "sample has {} value(s), expected {}",
                            raw.len(),
                            channels.len()
                        ),
                    });
                }
                samples.push(PowerSample { cycle, raw });
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "design" => design = rest.to_string(),
                "lsb_fj_bits" => {
                    let bits = u64::from_str_radix(rest.trim(), 16)
                        .map_err(|_| err(lineno, "bad lsb_fj_bits"))?;
                    lsb_fj = f64::from_bits(bits);
                }
                "strobe_period" => {
                    strobe_period = rest
                        .trim()
                        .parse()
                        .map_err(|_| err(lineno, "bad strobe_period"))?;
                }
                "sample_period" => {
                    sample_period = rest
                        .trim()
                        .parse()
                        .map_err(|_| err(lineno, "bad sample_period"))?;
                }
                "channel" => {
                    let (kind, name) = rest
                        .split_once(' ')
                        .ok_or_else(|| err(lineno, "channel needs kind and name"))?;
                    let kind = match kind {
                        "domain" => ChannelKind::Domain,
                        "component" => ChannelKind::Component,
                        _ => return Err(err(lineno, "unknown channel kind")),
                    };
                    channels.push(Channel {
                        name: name.to_string(),
                        kind,
                    });
                }
                "digest_fnv128" => stated_digest = Some(rest.trim().to_string()),
                "samples" => {
                    expected_samples = Some(
                        rest.trim()
                            .parse::<usize>()
                            .map_err(|_| err(lineno, "bad sample count"))?,
                    );
                }
                _ => return Err(err(lineno, "unknown field")),
            }
        }
        let expected = expected_samples.ok_or_else(|| err(1, "missing `samples` field"))?;
        if samples.len() != expected {
            return Err(WaveformError::Parse {
                line: 1,
                message: format!("expected {expected} sample(s), found {}", samples.len()),
            });
        }
        let wf = PowerWaveform {
            design,
            channels,
            lsb_fj,
            strobe_period,
            sample_period,
            samples,
        };
        if let Some(stated) = stated_digest {
            let actual = wf.digest();
            if stated != actual {
                return Err(WaveformError::Parse {
                    line: 1,
                    message: format!("digest mismatch: stated {stated}, samples hash to {actual}"),
                });
            }
        }
        Ok(wf)
    }
}

/// Captures strobe-aligned samples into a [`PowerWaveform`] under a
/// retention policy.
///
/// The recorder is engine-agnostic: callers step their simulator to a
/// strobe boundary, read the raw accumulator values (for example via
/// `InstrumentedDesign::try_read_raw_totals`), and [`offer`] them. The
/// recorder applies source sampling (`sample_period`, in strobes) and
/// the [`CaptureMode`]; [`finish`] appends the final offered sample if
/// it was decimated away, so the integral invariant always covers the
/// whole run.
///
/// [`offer`]: WaveformRecorder::offer
/// [`finish`]: WaveformRecorder::finish
#[derive(Debug, Clone)]
pub struct WaveformRecorder {
    waveform: PowerWaveform,
    mode: CaptureMode,
    /// Samples offered so far (strobe boundaries seen).
    offered: u64,
    /// Among source-accepted samples, keep every `stride`-th (Decimate).
    stride: u64,
    /// Source-accepted samples seen (input index for `stride`).
    accepted: u64,
    /// The most recently offered sample, for the final flush.
    last_offered: Option<PowerSample>,
}

impl WaveformRecorder {
    /// A recorder for `design` capturing `channels`, scaled by the
    /// instrumented format's `lsb_fj` and `strobe_period`.
    pub fn new(
        design: impl Into<String>,
        channels: Vec<Channel>,
        lsb_fj: f64,
        strobe_period: u32,
        sample_period: u32,
        mode: CaptureMode,
    ) -> Self {
        Self {
            waveform: PowerWaveform {
                design: design.into(),
                channels,
                lsb_fj,
                strobe_period,
                sample_period: sample_period.max(1),
                samples: Vec::new(),
            },
            mode,
            offered: 0,
            stride: 1,
            accepted: 0,
            last_offered: None,
        }
    }

    /// Offers one strobe-boundary sample. Whether it is retained
    /// depends on the sample period and capture mode; the final offered
    /// sample is always recoverable via [`WaveformRecorder::finish`].
    pub fn offer(&mut self, cycle: u64, raw: &[u64]) -> Result<(), WaveformError> {
        if raw.len() != self.waveform.channels.len() {
            return Err(WaveformError::ChannelCount {
                expected: self.waveform.channels.len(),
                got: raw.len(),
            });
        }
        let sample = PowerSample {
            cycle,
            raw: raw.to_vec(),
        };
        let offered = self.offered;
        self.offered += 1;
        self.last_offered = Some(sample.clone());
        if !offered.is_multiple_of(u64::from(self.waveform.sample_period)) {
            return Ok(());
        }
        match self.mode {
            CaptureMode::Unbounded => self.waveform.samples.push(sample),
            CaptureMode::Decimate(cap) => {
                let cap = cap.max(2);
                let accepted = self.accepted;
                self.accepted += 1;
                if !accepted.is_multiple_of(self.stride) {
                    return Ok(());
                }
                if self.waveform.samples.len() == cap {
                    // Halve the retained set and double the stride; the
                    // first sample (index 0) is always kept.
                    let mut keep = 0usize;
                    self.waveform.samples.retain(|_| {
                        let k = keep.is_multiple_of(2);
                        keep += 1;
                        k
                    });
                    self.stride *= 2;
                    if !accepted.is_multiple_of(self.stride) {
                        return Ok(());
                    }
                }
                self.waveform.samples.push(sample);
            }
        }
        Ok(())
    }

    /// Samples offered so far (including skipped boundaries).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// True when the next offer would pass the source sample filter.
    /// Reading the accumulator ports can dominate tracing cost, so
    /// callers may skip the readback entirely when this is false —
    /// provided they account for the boundary with
    /// [`WaveformRecorder::skip`] and offer the run's final reading
    /// explicitly (a skipped boundary leaves nothing for
    /// [`WaveformRecorder::finish`] to flush).
    pub fn wants_next(&self) -> bool {
        self.offered
            .is_multiple_of(u64::from(self.waveform.sample_period))
    }

    /// Accounts for a strobe boundary whose readback the caller skipped
    /// because [`WaveformRecorder::wants_next`] was false.
    pub fn skip(&mut self) {
        self.offered += 1;
    }

    /// Finishes the capture: if the most recently offered sample was
    /// decimated away, appends it (so `Unbounded` and `Decimate`
    /// waveforms always end at the run's final reading), then returns
    /// the waveform.
    pub fn finish(mut self) -> PowerWaveform {
        if let Some(last) = self.last_offered.take() {
            if self.waveform.samples.last() != Some(&last) {
                self.waveform.samples.push(last);
            }
        }
        self.waveform
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(mode: CaptureMode) -> WaveformRecorder {
        WaveformRecorder::new(
            "test",
            vec![Channel::domain("clk_power_total")],
            0.5,
            2,
            1,
            mode,
        )
    }

    #[test]
    fn unbounded_keeps_everything_and_integrates() {
        let mut rec = recorder(CaptureMode::Unbounded);
        for i in 0..10u64 {
            rec.offer(i * 2, &[i * i]).unwrap();
        }
        let wf = rec.finish();
        assert_eq!(wf.len(), 10);
        // (81 - 0) * lsb(0.5) * strobe_period(2).
        assert_eq!(wf.integral_fj(), 81.0);
    }

    #[test]
    fn component_channels_are_excluded_from_the_integral() {
        let mut rec = WaveformRecorder::new(
            "test",
            vec![Channel::domain("clk"), Channel::component("alu")],
            1.0,
            1,
            1,
            CaptureMode::Unbounded,
        );
        rec.offer(0, &[0, 0]).unwrap();
        rec.offer(4, &[10, 7]).unwrap();
        assert_eq!(rec.finish().integral_fj(), 10.0);
    }

    #[test]
    fn decimation_is_bounded_keeps_endpoints_and_preserves_integral() {
        let mut rec = recorder(CaptureMode::Decimate(8));
        for i in 0..1000u64 {
            rec.offer(i, &[3 * i]).unwrap();
        }
        let wf = rec.finish();
        assert!(wf.len() <= 9, "decimated to {} samples", wf.len());
        assert_eq!(wf.samples.first().unwrap().cycle, 0);
        assert_eq!(wf.samples.last().unwrap().cycle, 999);
        // Integral only needs the endpoints, so decimation preserves it:
        // (2997 - 0) * 0.5 * 2.
        assert_eq!(wf.integral_fj(), 2997.0);
    }

    #[test]
    fn sample_period_decimates_at_the_source() {
        let mut rec = WaveformRecorder::new(
            "test",
            vec![Channel::domain("clk")],
            1.0,
            1,
            4,
            CaptureMode::Unbounded,
        );
        for i in 0..10u64 {
            rec.offer(i, &[i]).unwrap();
        }
        let wf = rec.finish();
        // Strobes 0, 4, 8 pass the source filter; 9 is the final flush.
        let cycles: Vec<u64> = wf.samples.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![0, 4, 8, 9]);
    }

    #[test]
    fn skipped_boundaries_keep_the_source_filter_aligned() {
        let mut rec = WaveformRecorder::new(
            "test",
            vec![Channel::domain("clk")],
            1.0,
            1,
            4,
            CaptureMode::Unbounded,
        );
        // A caller that reads the ports only when the recorder wants
        // them must retain the same samples as one that offers every
        // boundary (plus the explicit final reading).
        for i in 0..10u64 {
            if rec.wants_next() {
                rec.offer(i, &[i]).unwrap();
            } else {
                rec.skip();
            }
        }
        rec.offer(10, &[10]).unwrap();
        let wf = rec.finish();
        let cycles: Vec<u64> = wf.samples.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![0, 4, 8, 10]);
    }

    #[test]
    fn channel_count_mismatch_is_an_error() {
        let mut rec = recorder(CaptureMode::Unbounded);
        let err = rec.offer(0, &[1, 2]).unwrap_err();
        assert_eq!(
            err,
            WaveformError::ChannelCount {
                expected: 1,
                got: 2
            }
        );
        assert!(err.to_string().contains("2 channel(s)"));
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let mut rec = WaveformRecorder::new(
            "DCT",
            vec![Channel::domain("clk"), Channel::component("mult")],
            1.25e-3,
            4,
            2,
            CaptureMode::Unbounded,
        );
        for i in 0..7u64 {
            rec.offer(i * 4, &[i * 100, i * 30]).unwrap();
        }
        let wf = rec.finish();
        let text = wf.to_text();
        let parsed = PowerWaveform::from_text(&text).unwrap();
        assert_eq!(parsed, wf);
        assert_eq!(parsed.digest(), wf.digest());
        assert_eq!(parsed.integral_fj().to_bits(), wf.integral_fj().to_bits());
    }

    #[test]
    fn parser_rejects_corruption() {
        let mut rec = recorder(CaptureMode::Unbounded);
        rec.offer(0, &[0]).unwrap();
        rec.offer(2, &[5]).unwrap();
        let text = rec.finish().to_text();
        // Flip a sample value: the stated digest no longer matches.
        let bad = text.replace("2 5", "2 6");
        let err = PowerWaveform::from_text(&bad).unwrap_err();
        assert!(err.to_string().contains("digest mismatch"), "{err}");
        // Truncate the header entirely.
        assert!(PowerWaveform::from_text("").is_err());
        assert!(PowerWaveform::from_text("nonsense").is_err());
    }

    #[test]
    fn first_divergence_names_sample_and_channel() {
        let mut a = recorder(CaptureMode::Unbounded);
        let mut b = recorder(CaptureMode::Unbounded);
        for i in 0..5u64 {
            a.offer(i, &[i * 10]).unwrap();
            b.offer(i, &[if i == 3 { 31 } else { i * 10 }]).unwrap();
        }
        let (a, b) = (a.finish(), b.finish());
        match a.first_divergence(&b) {
            Some(Divergence::Value {
                index,
                cycle,
                ref channel,
                left,
                right,
            }) => {
                assert_eq!((index, cycle, left, right), (3, 3, 30, 31));
                assert_eq!(channel, "clk_power_total");
            }
            other => panic!("unexpected divergence: {other:?}"),
        }
        assert_eq!(a.first_divergence(&a.clone()), None);
        let msg = a.first_divergence(&b).unwrap().to_string();
        assert!(msg.contains("sample 3"), "{msg}");
    }

    #[test]
    fn shorter_prefix_reports_sample_count() {
        let mut a = recorder(CaptureMode::Unbounded);
        let mut b = recorder(CaptureMode::Unbounded);
        for i in 0..4u64 {
            a.offer(i, &[i]).unwrap();
            if i < 3 {
                b.offer(i, &[i]).unwrap();
            }
        }
        let d = a.finish().first_divergence(&b.finish());
        assert_eq!(d, Some(Divergence::SampleCount { left: 4, right: 3 }));
    }
}
