//! Photo-collection tasks.
use tvdp_geo::GeoPoint;

/// Identifies a spatial task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task-{}", self.0)
    }
}

/// A request for one geo-tagged photo: go to `location` and photograph
/// toward `required_heading` (when the campaign needs a specific viewing
/// direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialTask {
    /// Task identifier.
    pub id: TaskId,
    /// Where the photo must be taken.
    pub location: GeoPoint,
    /// Required compass viewing direction in degrees, if any.
    pub required_heading: Option<f64>,
    /// Reward points offered (incentive accounting).
    pub reward: u32,
}

impl SpatialTask {
    /// Creates a task with a directional requirement.
    pub fn directed(id: TaskId, location: GeoPoint, heading: f64, reward: u32) -> Self {
        Self {
            id,
            location,
            required_heading: Some(tvdp_geo::normalize_deg(heading)),
            reward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_task_normalizes_heading() {
        let t = SpatialTask::directed(TaskId(1), GeoPoint::new(34.0, -118.0), 370.0, 5);
        assert_eq!(t.required_heading, Some(10.0));
        assert_eq!(t.id.to_string(), "task-1");
    }
}
