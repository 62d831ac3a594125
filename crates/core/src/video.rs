//! Video ingestion as key-frame sequences.
//!
//! The paper stores a video as "a sequence of key frames … where each one
//! is tagged with various descriptors" (Section IV-B), with per-frame
//! spatial metadata at MediaQ granularity. Uploading every frame would be
//! redundant (challenge 2 of Section II), so key-frame selection keeps a
//! frame only when it adds something: enough travel, a new viewing
//! direction, or fresh coverage area — the criteria behind the paper's
//! key-frame-selection references \[6\]\[7\].
use tvdp_geo::Fov;
use tvdp_storage::ImageId;
use tvdp_vision::Image;

/// One captured video frame with its spatial metadata.
#[derive(Debug, Clone)]
pub struct VideoFrame {
    /// Frame pixels.
    pub image: Image,
    /// Per-frame FOV (MediaQ-granularity sensing).
    pub fov: Fov,
    /// Capture timestamp, Unix seconds.
    pub captured_at: i64,
}

/// Key-frame selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyframePolicy {
    /// Keep every `n`-th frame (the naive baseline).
    EveryNth(usize),
    /// Keep a frame when the camera moved at least `min_move_m` metres or
    /// turned at least `min_turn_deg` degrees since the last kept frame —
    /// the spatial-novelty criterion.
    SpatialNovelty {
        /// Minimum camera travel to justify a new key frame.
        min_move_m: f64,
        /// Minimum heading change to justify a new key frame.
        min_turn_deg: f64,
    },
}

/// Selects the indices of frames to keep. The first frame is always kept.
pub fn select_keyframes(frames: &[VideoFrame], policy: KeyframePolicy) -> Vec<usize> {
    if frames.is_empty() {
        return Vec::new();
    }
    match policy {
        KeyframePolicy::EveryNth(n) => {
            let n = n.max(1);
            (0..frames.len()).step_by(n).collect()
        }
        KeyframePolicy::SpatialNovelty {
            min_move_m,
            min_turn_deg,
        } => {
            let mut kept = vec![0usize];
            let mut last = &frames[0].fov;
            for (i, frame) in frames.iter().enumerate().skip(1) {
                let moved = last.camera.fast_distance_m(&frame.fov.camera);
                let turned = tvdp_geo::angular_diff_deg(last.heading_deg, frame.fov.heading_deg);
                if moved >= min_move_m || turned >= min_turn_deg {
                    kept.push(i);
                    last = &frame.fov;
                }
            }
            kept
        }
    }
}

/// Result of a video ingestion.
#[derive(Debug, Clone)]
pub struct VideoIngestReport {
    /// Stored key-frame ids, in time order.
    pub keyframes: Vec<ImageId>,
    /// Total frames offered.
    pub frames_offered: usize,
    /// Frames dropped by key-frame selection.
    pub frames_dropped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_geo::GeoPoint;

    fn frame(dist_m: f64, heading: f64, t: i64) -> VideoFrame {
        let base = GeoPoint::new(34.0, -118.25);
        VideoFrame {
            image: Image::from_fn(16, 16, |x, y| [x as u8, y as u8, t as u8]),
            fov: Fov::new(base.destination(90.0, dist_m), heading, 60.0, 80.0),
            captured_at: t,
        }
    }

    #[test]
    fn every_nth_keeps_stride() {
        let frames: Vec<VideoFrame> = (0..10).map(|i| frame(i as f64, 0.0, i as i64)).collect();
        assert_eq!(
            select_keyframes(&frames, KeyframePolicy::EveryNth(3)),
            vec![0, 3, 6, 9]
        );
        assert_eq!(
            select_keyframes(&frames, KeyframePolicy::EveryNth(1)).len(),
            10
        );
        assert_eq!(
            select_keyframes(&[], KeyframePolicy::EveryNth(2)),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn spatial_novelty_drops_stationary_frames() {
        // Truck stopped at a light: 20 identical poses, then moves.
        let mut frames: Vec<VideoFrame> = (0..20).map(|i| frame(0.0, 0.0, i)).collect();
        for i in 0..5 {
            frames.push(frame(30.0 * (i + 1) as f64, 0.0, 20 + i as i64));
        }
        let kept = select_keyframes(
            &frames,
            KeyframePolicy::SpatialNovelty {
                min_move_m: 15.0,
                min_turn_deg: 30.0,
            },
        );
        assert_eq!(kept.len(), 6, "first frame + 5 moving frames: {kept:?}");
        assert_eq!(kept[0], 0);
    }

    #[test]
    fn spatial_novelty_keeps_turns() {
        // Stationary but panning camera.
        let frames: Vec<VideoFrame> = (0..8)
            .map(|i| frame(0.0, i as f64 * 45.0, i as i64))
            .collect();
        let kept = select_keyframes(
            &frames,
            KeyframePolicy::SpatialNovelty {
                min_move_m: 1000.0,
                min_turn_deg: 40.0,
            },
        );
        assert_eq!(kept.len(), 8, "every 45-degree turn is novel");
    }
}
