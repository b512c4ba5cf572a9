//! Stored exact outputs for some seeds (`reference.tsv`).

use crate::workloads::Workload;

const TABLE: &str = include_str!("../reference.tsv");

/// Events and digest a pass of `workload` on `seed` must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub events: u64,
    pub digest: u64,
}

pub fn lookup(workload: Workload, seed: u64) -> Option<Reference> {
    parse(TABLE)
        .find(|(w, s, _)| *w == workload.name() && *s == seed)
        .map(|(_, _, r)| r)
}

fn parse(table: &str) -> impl Iterator<Item = (&str, u64, Reference)> {
    table
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 4, "reference.tsv: bad line {line:?}");
            let num = |s: &str| s.parse::<u64>().expect("reference.tsv: bad number");
            let digest = u64::from_str_radix(f[3], 16).expect("reference.tsv: bad digest");
            (
                f[0],
                num(f[1]),
                Reference {
                    events: num(f[2]),
                    digest,
                },
            )
        })
}

/// The line `reference.tsv` would hold for this pass.
pub fn line(workload: Workload, seed: u64, events: u64, digest: u64) -> String {
    format!("{}\t{seed}\t{events}\t{digest:016x}", workload.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_parses_and_names_known_workloads() {
        for (w, _, _) in parse(TABLE) {
            assert!(Workload::parse(w).is_some(), "{w}");
        }
        let r = lookup(Workload::PaperFigures, 0).expect("reference seed stored");
        assert_eq!(r.events, 25_484_651);
    }

    #[test]
    fn line_round_trips() {
        let l = line(Workload::StudySweep, 3, 42, 0xab);
        let (w, s, r) = parse(&l).next().expect("one line");
        assert_eq!(
            (w, s, r),
            (
                "study_sweep",
                3,
                Reference {
                    events: 42,
                    digest: 0xab
                }
            )
        );
    }
}
