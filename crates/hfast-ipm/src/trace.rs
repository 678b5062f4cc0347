//! Plain-text persistence for communication profiles.
//!
//! A small line-oriented codec so profiles can be written to disk by a
//! profiling run and re-analyzed later (the workflow the paper used:
//! profile on the production machine, analyze offline). The format is
//! versioned, human-inspectable, and self-contained:
//!
//! ```text
//! hfast-ipm-profile v1
//! size 4
//! overflow 0
//! entry MPI_Isend 1024 12 93000 5000 11000
//! apivol 0 1 12288 12 1024
//! wirevol 0 1 12288 12 1024
//! end
//! ```

use std::collections::BTreeMap;

use hfast_mpi::CallKind;
use hfast_topology::EdgeStat;

use crate::hashtable::CallStats;
use crate::profile::{CommProfile, ProfileEntry};

/// Largest world size a profile may declare, which [`from_text`] checks;
/// this is also the largest world `hfast-analyze capture` profiles.
pub const MAX_PROFILE_SIZE: usize = 4096;

/// Errors from parsing a serialized profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Missing or wrong header line.
    BadHeader(String),
    /// A line failed to parse.
    BadLine {
        /// 1-based line number of the offending line.
        line_no: usize,
        /// The raw line content.
        content: String,
    },
    /// The final `end` marker was missing.
    Truncated,
    /// An unknown call-kind name.
    UnknownKind(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadHeader(h) => write!(f, "bad profile header: {h:?}"),
            TraceError::BadLine { line_no, content } => {
                write!(f, "unparseable line {line_no}: {content:?}")
            }
            TraceError::Truncated => write!(f, "profile truncated (missing `end`)"),
            TraceError::UnknownKind(k) => write!(f, "unknown call kind {k:?}"),
        }
    }
}

impl std::error::Error for TraceError {}

fn kind_from_name(name: &str) -> Option<CallKind> {
    CallKind::ALL.iter().copied().find(|k| k.mpi_name() == name)
}

/// Serializes a profile to the v1 text format.
pub fn to_text(profile: &CommProfile) -> String {
    let mut out = String::new();
    out.push_str("hfast-ipm-profile v1\n");
    out.push_str(&format!("size {}\n", profile.size));
    out.push_str(&format!("overflow {}\n", profile.overflow));
    for e in &profile.entries {
        out.push_str(&format!(
            "entry {} {} {} {} {} {}\n",
            e.kind.mpi_name(),
            e.bytes,
            e.stats.count,
            e.stats.total_ns,
            e.stats.min_ns,
            e.stats.max_ns
        ));
    }
    for (label, volume) in [
        ("apivol", &profile.api_volume),
        ("wirevol", &profile.wire_volume),
    ] {
        for (src, dst, stat) in volume {
            out.push_str(&format!(
                "{label} {src} {dst} {} {} {}\n",
                stat.bytes, stat.count, stat.max_msg
            ));
        }
    }
    out.push_str("end\n");
    out
}

/// Parses a profile from the v1 text format.
pub fn from_text(text: &str) -> Result<CommProfile, TraceError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| TraceError::BadHeader(String::new()))?;
    if header.trim() != "hfast-ipm-profile v1" {
        return Err(TraceError::BadHeader(header.to_string()));
    }

    let mut size: Option<usize> = None;
    let mut overflow = 0u64;
    let mut entries = Vec::new();
    // A pair's last line wins; a stat with no messages is no traffic.
    let mut api: BTreeMap<(usize, usize), EdgeStat> = BTreeMap::new();
    let mut wire: BTreeMap<(usize, usize), EdgeStat> = BTreeMap::new();
    let mut ended = false;

    for (line_no, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let bad = || TraceError::BadLine {
            line_no: line_no + 1,
            content: raw.to_string(),
        };
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("size") => {
                if size.is_some() {
                    return Err(bad()); // a second header would drop volumes
                }
                let n: usize = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                if n > MAX_PROFILE_SIZE {
                    return Err(bad());
                }
                size = Some(n);
            }
            Some("overflow") => {
                overflow = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            }
            Some("entry") => {
                let name = parts.next().ok_or_else(bad)?;
                let kind = kind_from_name(name)
                    .ok_or_else(|| TraceError::UnknownKind(name.to_string()))?;
                let nums: Vec<u64> = parts
                    .map(|p| p.parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad())?;
                if nums.len() != 5 {
                    return Err(bad());
                }
                entries.push(ProfileEntry {
                    kind,
                    bytes: nums[0],
                    stats: CallStats {
                        count: nums[1],
                        total_ns: nums[2],
                        min_ns: nums[3],
                        max_ns: nums[4],
                    },
                });
            }
            Some(label @ ("apivol" | "wirevol")) => {
                let n = size.ok_or_else(bad)?;
                let nums: Vec<u64> = parts
                    .map(|p| p.parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad())?;
                if nums.len() != 5 {
                    return Err(bad());
                }
                let (src, dst) = (nums[0] as usize, nums[1] as usize);
                if src >= n || dst >= n {
                    return Err(bad());
                }
                let stat = EdgeStat {
                    bytes: nums[2],
                    count: nums[3],
                    max_msg: nums[4],
                };
                let target = if label == "apivol" {
                    &mut api
                } else {
                    &mut wire
                };
                target.insert((src, dst), stat);
            }
            Some("end") => {
                ended = true;
                break;
            }
            _ => return Err(bad()),
        }
    }
    if !ended {
        return Err(TraceError::Truncated);
    }
    let size = size.ok_or(TraceError::Truncated)?;
    let triples = |volume: BTreeMap<(usize, usize), EdgeStat>| {
        volume
            .into_iter()
            .filter(|(_, stat)| stat.is_active())
            .map(|((src, dst), stat)| (src, dst, stat))
            .collect()
    };
    Ok(CommProfile {
        size,
        entries,
        api_volume: triples(api),
        wire_volume: triples(wire),
        overflow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::IpmProfiler;
    use hfast_mpi::{CommHook, Payload, ReduceOp, Tag, World, WorldConfig};
    use std::sync::Arc;

    fn sample_profile() -> CommProfile {
        let prof = Arc::new(IpmProfiler::new(3));
        World::run_with(
            WorldConfig::new(3).hook(prof.clone() as Arc<dyn CommHook>),
            |comm| {
                let right = (comm.rank() + 1) % 3;
                let left = (comm.rank() + 2) % 3;
                let req = comm.isend(right, Tag(1), Payload::synthetic(512)).unwrap();
                comm.recv(left, Tag(1)).unwrap();
                comm.wait(req).unwrap();
                comm.allreduce(Payload::synthetic(16), ReduceOp::Sum)
                    .unwrap();
            },
        )
        .unwrap();
        prof.profile()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let profile = sample_profile();
        let text = to_text(&profile);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed, profile);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(
            from_text("not a profile\nend\n"),
            Err(TraceError::BadHeader(_))
        ));
        assert!(matches!(from_text(""), Err(TraceError::BadHeader(_))));
    }

    #[test]
    fn truncated_rejected() {
        let profile = sample_profile();
        let text = to_text(&profile);
        let cut = &text[..text.len() - 4]; // drop "end\n"
        assert_eq!(from_text(cut), Err(TraceError::Truncated));
    }

    #[test]
    fn garbage_line_rejected() {
        let text = "hfast-ipm-profile v1\nsize 2\nwat 1 2 3\nend\n";
        assert!(matches!(from_text(text), Err(TraceError::BadLine { .. })));
    }

    #[test]
    fn unknown_kind_rejected() {
        let text = "hfast-ipm-profile v1\nsize 2\nentry MPI_Bogus 1 1 1 1 1\nend\n";
        assert_eq!(
            from_text(text),
            Err(TraceError::UnknownKind("MPI_Bogus".into()))
        );
    }

    #[test]
    fn duplicate_size_header_rejected() {
        let text = "hfast-ipm-profile v1\nsize 2\napivol 0 1 8 1 8\nsize 2\nend\n";
        assert!(matches!(from_text(text), Err(TraceError::BadLine { .. })));
    }

    #[test]
    fn oversized_world_rejected_before_allocating() {
        // Refused at the `size` line, whatever the volume lines say.
        for size in ["100000", "4294967296"] {
            let text = format!("hfast-ipm-profile v1\nsize {size}\nend\n");
            assert_eq!(
                from_text(&text),
                Err(TraceError::BadLine {
                    line_no: 2,
                    content: format!("size {size}"),
                })
            );
        }
        let largest = format!("hfast-ipm-profile v1\nsize {MAX_PROFILE_SIZE}\nend\n");
        assert_eq!(from_text(&largest).unwrap().size, MAX_PROFILE_SIZE);
    }

    #[test]
    fn repeated_volume_line_keeps_the_last() {
        let text = "hfast-ipm-profile v1\nsize 2\n\
                    apivol 0 1 8 1 8\napivol 1 0 4 1 4\napivol 0 1 24 2 16\n\
                    wirevol 1 0 4 1 4\nwirevol 1 0 0 0 0\nend\n";
        let profile = from_text(text).unwrap();
        let stat = |bytes, count, max_msg| EdgeStat {
            bytes,
            count,
            max_msg,
        };
        assert_eq!(
            profile.api_volume,
            vec![(0, 1, stat(24, 2, 16)), (1, 0, stat(4, 1, 4))]
        );
        assert!(
            profile.wire_volume.is_empty(),
            "a zero line clears the pair"
        );
    }

    #[test]
    fn out_of_range_volume_rejected() {
        let text = "hfast-ipm-profile v1\nsize 2\napivol 5 0 1 1 1\nend\n";
        assert!(matches!(from_text(text), Err(TraceError::BadLine { .. })));
    }

    #[test]
    fn format_is_human_readable() {
        let profile = sample_profile();
        let text = to_text(&profile);
        assert!(text.starts_with("hfast-ipm-profile v1\nsize 3\n"));
        assert!(text.contains("entry MPI_Allreduce 16"));
        assert!(text.trim_end().ends_with("end"));
    }
}
