//! Registry snapshots and the snapshot differ.
//!
//! A [`Snapshot`] is a flat `series-key → value` sample of a registry at
//! one instant (see `Registry::sample`). [`diff`] is the shared differ:
//! `levyc metrics --watch` and the exp-binary progress reporter both
//! consume the same `(key, previous, current)` change lists.

/// One point-in-time sample of a registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Sample time as unix microseconds.
    pub ts_us: u64,
    /// `series-key → value`, sorted by key. Keys look like exposition
    /// series names: `levy_served_queue_depth`,
    /// `levy_sim_trial_steps_count`, `levy_served_http_responses_total{path="/v1/query",status="200"}`.
    pub values: Vec<(String, f64)>,
}

impl Snapshot {
    /// Looks up one series by key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.values[i].1)
    }
}

/// Series that changed between two snapshots, as
/// `(key, previous, current)`. Series new in `next` report a previous
/// value of `0.0` (registries only ever grow). Sorted by key.
pub fn diff(prev: &Snapshot, next: &Snapshot) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    let mut pi = 0;
    for (key, value) in &next.values {
        while pi < prev.values.len() && prev.values[pi].0.as_str() < key.as_str() {
            pi += 1;
        }
        let before = if pi < prev.values.len() && prev.values[pi].0 == *key {
            prev.values[pi].1
        } else {
            0.0
        };
        if before != *value {
            out.push((key.clone(), before, *value));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(ts_us: u64, entries: &[(&str, f64)]) -> Snapshot {
        let mut values: Vec<(String, f64)> =
            entries.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        values.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        Snapshot { ts_us, values }
    }

    #[test]
    fn diff_reports_changed_and_new_series() {
        let a = snap(1, &[("queries", 3.0), ("depth", 2.0), ("hits", 1.0)]);
        let b = snap(
            2,
            &[
                ("queries", 5.0),
                ("depth", 2.0),
                ("hits", 1.0),
                ("misses", 4.0),
            ],
        );
        let d = diff(&a, &b);
        assert_eq!(
            d,
            vec![
                ("misses".to_owned(), 0.0, 4.0),
                ("queries".to_owned(), 3.0, 5.0),
            ]
        );
        assert!(diff(&a, &a).is_empty(), "self-diff is empty");
    }

    #[test]
    fn snapshot_get_uses_binary_search() {
        let s = snap(1, &[("b", 2.0), ("a", 1.0), ("c", 3.0)]);
        assert_eq!(s.get("a"), Some(1.0));
        assert_eq!(s.get("c"), Some(3.0));
        assert_eq!(s.get("zz"), None);
    }
}
