//! Shared helpers for the application kernels.

use hfast_mpi::{Comm, Payload, Request, Result, SrcSel, Tag, TagSel};

/// Tags used by the kernels (one namespace per exchange flavour so repeated
/// steps cannot cross-match).
pub(crate) mod tags {
    use hfast_mpi::Tag;

    /// Halo/ghost-zone exchanges.
    pub(crate) const HALO: Tag = Tag(100);
    /// Toroidal particle shifts.
    pub(crate) const SHIFT: Tag = Tag(200);
    /// Block/panel transfers.
    pub(crate) const BLOCK: Tag = Tag(300);
    /// Tiny control messages.
    pub(crate) const CONTROL: Tag = Tag(400);
    /// Transpose traffic.
    pub(crate) const TRANSPOSE: Tag = Tag(500);
    /// Force/spatial-decomposition exchanges.
    pub(crate) const FORCE: Tag = Tag(600);
}

/// A symmetric nonblocking halo exchange with a set of partners:
/// post all receives, post all sends, wait for every receive individually,
/// wait for `immediate_send_waits` sends individually, and complete the rest
/// with one `waitall`.
///
/// The split between individual waits and the final `waitall` exists so the
/// kernels can reproduce each application's measured call mix (e.g. Cactus
/// shows both a large `MPI_Wait` slice and a small `MPI_Waitall` slice in
/// Figure 2).
pub(crate) fn halo_exchange(
    comm: &mut Comm,
    partners: &[usize],
    bytes: usize,
    tag: Tag,
    immediate_send_waits: usize,
) -> Result<()> {
    let mut recvs: Vec<Request> = Vec::with_capacity(partners.len());
    for &p in partners {
        recvs.push(comm.irecv(SrcSel::Rank(p), TagSel::Tag(tag), bytes)?);
    }
    let mut sends: Vec<Request> = Vec::with_capacity(partners.len());
    for &p in partners {
        sends.push(comm.isend(p, tag, Payload::synthetic(bytes))?);
    }
    for r in recvs {
        comm.wait(r)?;
    }
    let tail: Vec<Request> = if immediate_send_waits >= sends.len() {
        for s in sends {
            comm.wait(s)?;
        }
        Vec::new()
    } else {
        let tail = sends.split_off(immediate_send_waits);
        for s in sends {
            comm.wait(s)?;
        }
        tail
    };
    if !tail.is_empty() {
        comm.waitall(tail)?;
    }
    Ok(())
}

/// Pairwise symmetric exchange where each side both isends and irecvs one
/// message and completes with per-pair `waitall` (LBMHD's 40/40/20 mix).
pub(crate) fn paired_exchange(
    comm: &mut Comm,
    partners: &[usize],
    bytes: usize,
    tag: Tag,
    pairs_per_waitall: usize,
) -> Result<()> {
    let mut pending: Vec<Request> = Vec::new();
    let mut pairs_in_batch = 0;
    for &p in partners {
        pending.push(comm.irecv(SrcSel::Rank(p), TagSel::Tag(tag), bytes)?);
        pending.push(comm.isend(p, tag, Payload::synthetic(bytes))?);
        pairs_in_batch += 1;
        if pairs_in_batch == pairs_per_waitall {
            comm.waitall(std::mem::take(&mut pending))?;
            pairs_in_batch = 0;
        }
    }
    if !pending.is_empty() {
        comm.waitall(pending)?;
    }
    Ok(())
}

/// Side-aware wrap-around ring distance between ranks.
pub(crate) fn ring_distance(a: usize, b: usize, n: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(n - d)
}

/// The 2D process-grid shape used by SuperLU-style kernels: the squarest
/// `rows × cols = p` factorization.
pub(crate) fn grid2d(p: usize) -> (usize, usize) {
    let mut rows = (p as f64).sqrt() as usize;
    while rows > 1 && !p.is_multiple_of(rows) {
        rows -= 1;
    }
    (rows.max(1), p / rows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_mpi::World;

    #[test]
    fn grid2d_factors() {
        assert_eq!(grid2d(64), (8, 8));
        assert_eq!(grid2d(256), (16, 16));
        assert_eq!(grid2d(12), (3, 4));
        assert_eq!(grid2d(7), (1, 7));
        assert_eq!(grid2d(1), (1, 1));
    }

    #[test]
    fn ring_distance_wraps() {
        assert_eq!(ring_distance(0, 1, 8), 1);
        assert_eq!(ring_distance(0, 7, 8), 1);
        assert_eq!(ring_distance(0, 4, 8), 4);
        assert_eq!(ring_distance(2, 2, 8), 0);
    }

    #[test]
    fn halo_exchange_completes_symmetrically() {
        World::run(4, |comm| {
            let partners: Vec<usize> = (0..4).filter(|&p| p != comm.rank()).collect();
            halo_exchange(comm, &partners, 1024, tags::HALO, 1).unwrap();
            assert_eq!(comm.outstanding_recvs(), 0);
            assert_eq!(comm.unexpected_depth(), 0);
        })
        .unwrap();
    }

    #[test]
    fn paired_exchange_batches() {
        World::run(6, |comm| {
            let r = comm.rank();
            let partners = vec![(r + 1) % 6, (r + 5) % 6, (r + 2) % 6, (r + 4) % 6];
            paired_exchange(comm, &partners, 4096, tags::HALO, 2).unwrap();
            assert_eq!(comm.outstanding_recvs(), 0);
        })
        .unwrap();
    }
}
