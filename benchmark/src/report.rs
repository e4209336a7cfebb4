//! The result line: one JSON object, the last line of standard output.
//!
//! `{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"wall_s":
//! {"value": 2.41, "unit": "s"}, …}}` — written and (for `selfcheck`, which
//! compares runs) read back by hand; the build is offline and carries no
//! JSON crate.

/// One run's result.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in manifest order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// The result line. Values print with every digit they were measured
    /// to (`f64`'s shortest round-trip form).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line [`Report::to_json`] wrote.
    pub fn parse(line: &str) -> Option<Report> {
        let field = |key: &str| {
            let rest = &line[line.find(key)? + key.len()..];
            Some(rest[..rest.find([',', '}'])?].trim())
        };
        let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
        let mut metrics = Vec::new();
        for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            let unit = entry.split("\"unit\": \"").nth(1)?;
            metrics.push((
                name.to_string(),
                value.trim().parse().ok()?,
                unit.to_string(),
            ));
        }
        Some(Report {
            correct: field("\"correct\": ")?.parse().ok()?,
            attempted: field("\"attempted\": ")?.parse().ok()?,
            failed: field("\"failed\": ")?.parse().ok()?,
            metrics,
        })
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let r = Report {
            correct: true,
            attempted: 1280,
            failed: 0,
            metrics: vec![
                ("wall_s".into(), 2.4301237981, "s".into()),
                ("peak_threads".into(), 22.0, "threads".into()),
                (
                    "sim_write_mbps".into(),
                    9.193516120891582,
                    "sim_Mb/s".into(),
                ),
                ("runtime.probe.herd384_ns".into(), 5.1e6, "ns".into()),
            ],
        };
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1280, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 2.4301237981, \"unit\": \"s\"}, "));
        assert_eq!(Report::parse(&line), Some(r));
        assert_eq!(Report::parse("not a result"), None);
    }
}
