//! The video catalog: quality ladder, bitrates and per-video metadata.
//!
//! The paper's ground truth for representation quality comes from the
//! `itag` URI parameter, "used to specify the bit-rate, frame-rate and
//! resolution of the segment" (§3.2), with observed resolutions
//! {144p, 240p, 360p, 480p, 720p, 1080p}. We model the same six-rung
//! ladder with 2016-era H.264 bitrates, and tag segments with the real
//! YouTube DASH itag codes so the URI codec in `vqoe-telemetry` emits
//! recognizable metadata.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vqoe_simnet::rng::standard_normal;
use vqoe_simnet::time::Duration;

/// Audio track bitrate (the ubiquitous itag 140 AAC stream, ~128 kbps).
pub const AUDIO_BITRATE_BPS: f64 = 128_000.0;

/// YouTube DASH itag code for the audio track.
pub const AUDIO_ITAG_CODE: u32 = 140;

/// One rung of the representation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Itag {
    /// 144p — the emergency rung.
    Q144,
    /// 240p.
    Q240,
    /// 360p — the mobile default of the era.
    Q360,
    /// 480p.
    Q480,
    /// 720p HD.
    Q720,
    /// 1080p HD.
    Q1080,
}

/// The full ladder, worst to best. Index order == quality order.
pub const LADDER: [Itag; 6] = [
    Itag::Q144,
    Itag::Q240,
    Itag::Q360,
    Itag::Q480,
    Itag::Q720,
    Itag::Q1080,
];

impl Itag {
    /// Vertical resolution in lines — the value the paper's RQ labelling
    /// rule thresholds on (LD < 360 ≤ SD ≤ 480 < HD).
    pub fn resolution(self) -> u32 {
        match self {
            Itag::Q144 => 144,
            Itag::Q240 => 240,
            Itag::Q360 => 360,
            Itag::Q480 => 480,
            Itag::Q720 => 720,
            Itag::Q1080 => 1080,
        }
    }

    /// Nominal video bitrate (bps) of this rung (H.264, 2016-era
    /// YouTube encodes).
    pub fn video_bitrate_bps(self) -> f64 {
        match self {
            Itag::Q144 => 120_000.0,
            Itag::Q240 => 280_000.0,
            Itag::Q360 => 550_000.0,
            Itag::Q480 => 1_000_000.0,
            Itag::Q720 => 2_300_000.0,
            Itag::Q1080 => 4_300_000.0,
        }
    }

    /// The real YouTube DASH (MP4/avc1) itag code for this rung — what
    /// the `itag=` URI parameter carries.
    pub fn itag_code(self) -> u32 {
        match self {
            Itag::Q144 => 160,
            Itag::Q240 => 133,
            Itag::Q360 => 134,
            Itag::Q480 => 135,
            Itag::Q720 => 136,
            Itag::Q1080 => 137,
        }
    }

    /// Inverse of [`Itag::itag_code`].
    pub fn from_itag_code(code: u32) -> Option<Itag> {
        LADDER.iter().copied().find(|i| i.itag_code() == code)
    }

    /// Ladder index (0 = worst).
    pub fn ladder_index(self) -> usize {
        match self {
            Itag::Q144 => 0,
            Itag::Q240 => 1,
            Itag::Q360 => 2,
            Itag::Q480 => 3,
            Itag::Q720 => 4,
            Itag::Q1080 => 5,
        }
    }

    /// The rung `steps` above (saturating at 1080p).
    pub fn up(self, steps: usize) -> Itag {
        LADDER[(self.ladder_index() + steps).min(LADDER.len() - 1)]
    }

    /// The rung `steps` below (saturating at 144p).
    pub fn down(self, steps: usize) -> Itag {
        LADDER[self.ladder_index().saturating_sub(steps)]
    }
}

/// Static metadata of one catalog video.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VideoMeta {
    /// Total media duration.
    pub duration: Duration,
    /// Content complexity: a multiplicative factor on the nominal rung
    /// bitrates (talking heads ≈ 0.6, sports/action ≈ 1.6). Lognormally
    /// distributed across the catalog.
    pub complexity: f64,
    /// Highest rung this device/player combination will request (screen
    /// size and data-plan caps; §4.2 notes users on handhelds "opt for LD
    /// and SD video qualities").
    pub max_itag: Itag,
}

impl VideoMeta {
    /// Draw a catalog video.
    ///
    /// Durations are lognormal with median ≈ 180 s (the paper's "average
    /// session duration is approximately 180 seconds"), clamped to
    /// [30 s, 600 s]. Device quality caps are skewed toward small
    /// screens and limited data plans (§4.2: users on handhelds "opt for
    /// LD and SD video qualities"): 38 % cap at 240p, 30 % at 360p,
    /// 18 % at 480p, 9 % at 720p, 5 % at 1080p — tuned so the adaptive
    /// corpus lands near the paper's 57/38/5 LD/SD/HD priors.
    pub fn sample(rng: &mut StdRng) -> Self {
        let z = standard_normal(rng);
        let secs = (180.0 * (0.5 * z).exp()).clamp(30.0, 600.0);
        let zc = standard_normal(rng);
        let complexity = (0.3 * zc).exp().clamp(0.45, 2.2);
        let cap_draw: f64 = rng.gen_range(0.0..1.0);
        let max_itag = if cap_draw < 0.38 {
            Itag::Q240
        } else if cap_draw < 0.68 {
            Itag::Q360
        } else if cap_draw < 0.86 {
            Itag::Q480
        } else if cap_draw < 0.95 {
            Itag::Q720
        } else {
            Itag::Q1080
        };
        VideoMeta {
            duration: Duration::from_secs_f64(secs),
            complexity,
            max_itag,
        }
    }

    /// Effective media byte-rate of a rung for this video: nominal rung
    /// bitrate × complexity, plus the audio share for muxed delivery.
    pub fn video_bytes_per_media_sec(&self, itag: Itag) -> f64 {
        itag.video_bitrate_bps() * self.complexity / 8.0
    }

    /// Size of one media span at `itag` with per-chunk encoder jitter
    /// (±15 %, keyframe placement and scene variance).
    pub fn chunk_bytes(
        &self,
        itag: Itag,
        media: Duration,
        muxed_audio: bool,
        rng: &mut StdRng,
    ) -> u64 {
        let video = self.video_bytes_per_media_sec(itag) * media.as_secs_f64();
        let audio = if muxed_audio {
            AUDIO_BITRATE_BPS / 8.0 * media.as_secs_f64()
        } else {
            0.0
        };
        let jitter = rng.gen_range(0.85..1.15);
        (((video + audio) * jitter).max(400.0)) as u64
    }

    /// Size of one unmuxed audio segment of length `media`.
    pub fn audio_chunk_bytes(&self, media: Duration, rng: &mut StdRng) -> u64 {
        let jitter = rng.gen_range(0.93..1.07);
        ((AUDIO_BITRATE_BPS / 8.0 * media.as_secs_f64() * jitter).max(200.0)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ladder_is_ordered_by_resolution_and_bitrate() {
        for w in LADDER.windows(2) {
            assert!(w[0].resolution() < w[1].resolution());
            assert!(w[0].video_bitrate_bps() < w[1].video_bitrate_bps());
        }
    }

    #[test]
    fn itag_codes_roundtrip() {
        for itag in LADDER {
            assert_eq!(Itag::from_itag_code(itag.itag_code()), Some(itag));
        }
        assert_eq!(Itag::from_itag_code(999), None);
    }

    #[test]
    fn up_down_saturate() {
        assert_eq!(Itag::Q1080.up(3), Itag::Q1080);
        assert_eq!(Itag::Q144.down(2), Itag::Q144);
        assert_eq!(Itag::Q360.up(1), Itag::Q480);
        assert_eq!(Itag::Q360.down(1), Itag::Q240);
    }

    #[test]
    fn sampled_durations_are_clamped_and_plausible() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..2000 {
            let v = VideoMeta::sample(&mut rng);
            let secs = v.duration.as_secs_f64();
            assert!((30.0..=600.0).contains(&secs));
            assert!((0.45..=2.2).contains(&v.complexity));
            sum += secs;
        }
        let mean = sum / 2000.0;
        assert!(
            (120.0..=280.0).contains(&mean),
            "mean duration {mean} off target"
        );
    }

    #[test]
    fn chunk_bytes_scale_with_quality_and_duration() {
        let mut rng = StdRng::seed_from_u64(2);
        let v = VideoMeta {
            duration: Duration::from_secs(180),
            complexity: 1.0,
            max_itag: Itag::Q1080,
        };
        let small = v.chunk_bytes(Itag::Q144, Duration::from_secs(5), false, &mut rng);
        let large = v.chunk_bytes(Itag::Q720, Duration::from_secs(5), false, &mut rng);
        assert!(large > small * 8, "720p ({large}) vs 144p ({small})");
        let short = v.chunk_bytes(Itag::Q360, Duration::from_secs(2), false, &mut rng);
        let long = v.chunk_bytes(Itag::Q360, Duration::from_secs(10), false, &mut rng);
        assert!(long > short * 3);
    }

    #[test]
    fn muxed_chunks_include_audio_share() {
        let mut rng = StdRng::seed_from_u64(3);
        let v = VideoMeta {
            duration: Duration::from_secs(60),
            complexity: 1.0,
            max_itag: Itag::Q480,
        };
        // Average over jitter by sampling repeatedly.
        let avg = |muxed: bool, rng: &mut StdRng| -> f64 {
            (0..200)
                .map(|_| v.chunk_bytes(Itag::Q144, Duration::from_secs(5), muxed, rng) as f64)
                .sum::<f64>()
                / 200.0
        };
        let plain = avg(false, &mut rng);
        let muxed = avg(true, &mut rng);
        // 128 kbps over 5 s = 80 KB of audio.
        assert!(muxed - plain > 50_000.0, "muxed {muxed} vs plain {plain}");
    }

    #[test]
    fn audio_chunks_are_near_nominal_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let v = VideoMeta {
            duration: Duration::from_secs(60),
            complexity: 1.3,
            max_itag: Itag::Q480,
        };
        let b = v.audio_chunk_bytes(Duration::from_secs(5), &mut rng);
        // 128 kbps * 5 s / 8 = 80 KB ± 7 %; complexity must NOT apply.
        assert!((70_000..=90_000).contains(&b), "audio bytes {b}");
    }
}
