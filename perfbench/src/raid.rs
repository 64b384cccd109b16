//! Left-symmetric RAID-5 layout math, written out here from the layout's
//! definition rather than taken from the fleet's planner, so the benchmark
//! can predict what the array must do and check that it did.
//!
//! Exported space is cut into rows of `n - 1` data units of `unit` bytes.
//! Row `r` keeps its parity on member `(n - 1) - (r mod n)`, and data slot
//! `k` of the row lives on member `k`, skipping the parity member.

/// Geometry of an `n`-member rotating-parity array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Members (at least 3).
    pub members: usize,
    /// Stripe unit in bytes.
    pub unit: u64,
}

/// Which member is failed, and how many of its rows the rebuild has
/// already reconstructed (those rows serve normally again).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Failed {
    /// The failed (or replaced, not yet rebuilt) member.
    pub member: usize,
    /// Rows below this watermark are rebuilt.
    pub rebuilt_rows: u64,
}

impl Failed {
    fn lost(&self, member: usize, row: u64) -> bool {
        member == self.member && row >= self.rebuilt_rows
    }
}

impl Layout {
    /// The member holding row `row`'s parity.
    pub fn parity_member(&self, row: u64) -> usize {
        let n = self.members as u64;
        (n - 1 - row % n) as usize
    }

    /// The member holding data slot `slot` of row `row`.
    pub fn data_member(&self, row: u64, slot: u64) -> usize {
        let p = self.parity_member(row) as u64;
        (if slot < p { slot } else { slot + 1 }) as usize
    }

    /// `(row, slot)` of the unit holding exported byte `offset`.
    pub fn unit_of(&self, offset: u64) -> (u64, u64) {
        let unit = offset / self.unit;
        let data = self.members as u64 - 1;
        (unit / data, unit % data)
    }

    /// Whether a read of `[offset, offset + len)` needs XOR reconstruction
    /// because some unit it covers sits on a lost row of the failed member.
    pub fn read_is_degraded(&self, offset: u64, len: u64, failed: Option<Failed>) -> bool {
        let Some(f) = failed else { return false };
        let first = offset / self.unit;
        let last = (offset + len - 1) / self.unit;
        (first..=last).any(|u| {
            let (row, slot) = self.unit_of(u * self.unit);
            f.lost(self.data_member(row, slot), row)
        })
    }

    /// Member-level units programmed by a write of exactly one stripe unit
    /// at `offset`: the data unit and the parity unit, less whichever of the
    /// two sits on a lost row of the failed member.
    pub fn unit_write_programs(&self, offset: u64, failed: Option<Failed>) -> u64 {
        debug_assert_eq!(offset % self.unit, 0, "unit-aligned write");
        let (row, slot) = self.unit_of(offset);
        let lost = |m: usize| failed.is_some_and(|f| f.lost(m, row));
        let data = self.data_member(row, slot);
        let parity = self.parity_member(row);
        u64::from(!lost(data)) + u64::from(!lost(parity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOUR: Layout = Layout {
        members: 4,
        unit: 4096,
    };

    #[test]
    fn parity_rotates_right_to_left() {
        // Rows 0..4 of a 4-member array, drawn out by hand:
        //   row 0: D0 D1 D2 P
        //   row 1: D0 D1 P  D2
        //   row 2: D0 P  D1 D2
        //   row 3: P  D0 D1 D2
        let parity: Vec<usize> = (0..5).map(|r| FOUR.parity_member(r)).collect();
        assert_eq!(parity, vec![3, 2, 1, 0, 3]);
        let row = |r| -> Vec<usize> { (0..3).map(|k| FOUR.data_member(r, k)).collect() };
        assert_eq!(row(0), vec![0, 1, 2]);
        assert_eq!(row(1), vec![0, 1, 3]);
        assert_eq!(row(2), vec![0, 2, 3]);
        assert_eq!(row(3), vec![1, 2, 3]);
    }

    #[test]
    fn every_member_holds_one_unit_of_every_row() {
        for members in 3..7 {
            let l = Layout { members, unit: 512 };
            for r in 0..(3 * members as u64) {
                let mut seen = vec![l.parity_member(r)];
                seen.extend((0..members as u64 - 1).map(|k| l.data_member(r, k)));
                seen.sort_unstable();
                assert_eq!(seen, (0..members).collect::<Vec<_>>(), "row {r}");
            }
        }
    }

    #[test]
    fn offsets_map_to_rows_and_slots() {
        assert_eq!(FOUR.unit_of(0), (0, 0));
        assert_eq!(FOUR.unit_of(3 * 4096 - 1), (0, 2));
        assert_eq!(FOUR.unit_of(3 * 4096), (1, 0));
        assert_eq!(FOUR.unit_of(7 * 4096 + 5), (2, 1));
    }

    #[test]
    fn degraded_reads_follow_the_failed_member_and_watermark() {
        let failed = Some(Failed {
            member: 1,
            rebuilt_rows: 2,
        });
        // Row 0 slot 1 is on member 1 but row 0 is rebuilt.
        assert!(!FOUR.read_is_degraded(4096, 4096, failed));
        // Row 2 slot 1 lives on member 2 (member 1 holds row 2's parity).
        assert!(!FOUR.read_is_degraded(7 * 4096, 4096, failed));
        // Row 3 slot 0 lives on member 1, not yet rebuilt.
        assert!(FOUR.read_is_degraded(9 * 4096, 4096, failed));
        // A two-unit read touching it is degraded too.
        assert!(FOUR.read_is_degraded(8 * 4096, 8192, failed));
        // A healthy array never reconstructs.
        assert!(!FOUR.read_is_degraded(9 * 4096, 4096, None));
    }

    #[test]
    fn unit_writes_skip_the_lost_member() {
        let failed = Some(Failed {
            member: 1,
            rebuilt_rows: 0,
        });
        // Healthy: data + parity.
        assert_eq!(FOUR.unit_write_programs(0, None), 2);
        // Row 0 slot 1 is on member 1: parity only.
        assert_eq!(FOUR.unit_write_programs(4096, failed), 1);
        // Row 2's parity is on member 1: data only.
        assert_eq!(FOUR.unit_write_programs(6 * 4096, failed), 1);
        // Row 0 slot 0 (member 0) with parity on member 3: both live.
        assert_eq!(FOUR.unit_write_programs(0, failed), 2);
    }
}
