//! Spatial grid index over a fixed point set for exact nearest-`k` queries.
//!
//! [`GridIndex`] buckets points into lat/lon cells once at construction and
//! answers nearest-`k` queries by visiting cells in ascending order of a
//! *provable* lower bound on their distance to the target, stopping as soon
//! as no unvisited cell can still contribute. The result is **exactly** the
//! brute-force `(haversine_km, index)`-ordered top-`k` — same distances
//! (bit-identical: candidates are ranked with [`geodesy::haversine_km_pre`],
//! which is the scalar haversine with point-local trig hoisted), same tie
//! handling (equal distances resolve by ascending point index, matching the
//! stable full-mesh sort it replaces).
//!
//! Why the bound is provable: each cell stores a bounding cap — the unit
//! vector of its center and the maximum central angle from the center to
//! any point of the cell. For a lat/lon rectangle spanning < 180° of
//! longitude, the farthest point from the cell center is one of the four
//! corners (the angular distance to a fixed point, restricted to a
//! lat-edge or lon-edge of the rectangle, is extremized at the edge's
//! endpoints), so the cap radius is the corner maximum plus a float-safety
//! slack. By the spherical triangle inequality every point `p` of the cell
//! then satisfies `angle(target, p) >= angle(target, center) - radius`, and
//! the slack (subtracted again at query time) absorbs every rounding
//! difference between chord-space angles and float haversine — an
//! under-estimated bound only costs an extra cell visit, never exactness.
//!
//! Inside a visited cell, a point whose squared chord to the target
//! exceeds that of the current k-th distance plus the same slack cannot
//! enter the top-`k`, so its haversine is skipped. The chord only decides
//! what is skipped; every distance that ranks a candidate is still the
//! float haversine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use xborder_geo::{
    geodesy,
    geodesy::{GeoPoint, EARTH_RADIUS_KM},
    LatLon,
};

/// Cell edge in degrees (latitude and longitude). 6° keeps the full grid at
/// 30 × 60 cells: small enough that the per-query bound pass over non-empty
/// cells is trivial, dense enough that a nearest-100 query in the
/// Atlas-dense European core touches a handful of cells instead of the
/// whole 11 K mesh.
const CELL_DEG: f64 = 6.0;
const N_LAT: usize = (180.0 / CELL_DEG) as usize;
const N_LON: usize = (360.0 / CELL_DEG) as usize;

/// Radians subtracted from every lower bound (~6 m on Earth): absorbs the
/// float error between chord-space cap angles and haversine kilometres.
/// Only ever makes the bound smaller, i.e. the pruning more conservative.
const BOUND_SLACK_RAD: f64 = 1e-6;

/// Central angle (~19,100 km) from which the per-point chord pre-check
/// stops pruning. Below it, one slack of extra angle still adds more than
/// `2·sin(3)·1e-6 ≈ 2.8e-7` to the squared chord, far above its float
/// error.
const PRUNE_MAX_RAD: f64 = 3.0;

/// One non-empty cell: a bounding cap plus the member point indices
/// (ascending, so candidate evaluation order is deterministic).
#[derive(Debug, Clone)]
struct Cell {
    /// Unit vector of the cell's lat/lon midpoint.
    center_unit: [f64; 3],
    /// Conservative max central angle from the center to any cell point.
    radius_rad: f64,
    /// Indices into the indexed point set.
    members: Vec<u32>,
}

/// A candidate ordered exactly like the brute-force scan: by float
/// haversine distance, ties by ascending index. Cells reuse it as
/// `(lower bound, cell index)` for their visit order.
#[derive(Debug, Clone, Copy)]
struct Cand {
    dist_km: f64,
    idx: u32,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist_km
            .total_cmp(&other.dist_km)
            .then_with(|| self.idx.cmp(&other.idx))
    }
}

/// The index: precomputed per-point trigonometry plus the non-empty cells.
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// Per-point precomputed trig, in input order.
    pre: Vec<GeoPoint>,
    /// Non-empty cells in deterministic (lat row, lon column) order.
    cells: Vec<Cell>,
}

impl GridIndex {
    /// Builds the index over `points` (empty input is fine).
    pub fn build(points: &[LatLon]) -> GridIndex {
        let pre: Vec<GeoPoint> = points.iter().map(|p| GeoPoint::new(*p)).collect();
        // Deterministic bucket order: row-major over the fixed grid.
        let mut buckets: std::collections::BTreeMap<(usize, usize), Vec<u32>> = Default::default();
        for (i, p) in points.iter().enumerate() {
            buckets
                .entry(Self::cell_of(*p))
                .or_default()
                .push(i as u32);
        }
        let cells = buckets
            .into_iter()
            .map(|((li, lj), members)| {
                let lat0 = -90.0 + li as f64 * CELL_DEG;
                let lon0 = -180.0 + lj as f64 * CELL_DEG;
                let center = GeoPoint::new(LatLon::new(lat0 + CELL_DEG / 2.0, lon0 + CELL_DEG / 2.0));
                // Cap radius: corner maximum + slack (see module docs).
                let radius_rad = [
                    (lat0, lon0),
                    (lat0, lon0 + CELL_DEG),
                    (lat0 + CELL_DEG, lon0),
                    (lat0 + CELL_DEG, lon0 + CELL_DEG),
                ]
                .into_iter()
                .map(|(lat, lon)| {
                    let corner = GeoPoint::new(LatLon::new(lat, lon));
                    geodesy::chord_sq_to_angle_rad(geodesy::chord_sq(&center, &corner))
                })
                .fold(0.0f64, f64::max)
                    + BOUND_SLACK_RAD;
                Cell {
                    center_unit: center.unit,
                    radius_rad,
                    members,
                }
            })
            .collect();
        GridIndex { pre, cells }
    }

    /// Grid coordinates of a (normalized) coordinate.
    fn cell_of(p: LatLon) -> (usize, usize) {
        let li = (((p.lat + 90.0) / CELL_DEG) as usize).min(N_LAT - 1);
        let lj = (((p.lon + 180.0) / CELL_DEG) as usize).min(N_LON - 1);
        (li, lj)
    }

    /// The `k` indexed points nearest to `loc` in exact brute-force order
    /// (float haversine ascending, ties by ascending index), plus the
    /// number of candidate points in the cells the search visited.
    pub fn nearest_k(&self, loc: LatLon, k: usize) -> (Vec<usize>, u64) {
        let k = k.min(self.pre.len());
        if k == 0 {
            return (Vec::new(), 0);
        }
        let target = GeoPoint::new(loc);

        // Lower bound per non-empty cell. Cells pop lazily from a min-heap
        // in ascending (bound, cell index) order — the order a full sort
        // would give, without sorting the cells the search never reaches.
        let mut queue: BinaryHeap<Reverse<Cand>> = self
            .cells
            .iter()
            .enumerate()
            .map(|(ci, cell)| {
                let chord_sq = {
                    let dx = target.unit[0] - cell.center_unit[0];
                    let dy = target.unit[1] - cell.center_unit[1];
                    let dz = target.unit[2] - cell.center_unit[2];
                    dx * dx + dy * dy + dz * dz
                };
                let angle = geodesy::chord_sq_to_angle_rad(chord_sq);
                let bound_rad = (angle - cell.radius_rad - BOUND_SLACK_RAD).max(0.0);
                Reverse(Cand {
                    dist_km: EARTH_RADIUS_KM * bound_rad,
                    idx: ci as u32,
                })
            })
            .collect();

        // Max-heap of the current best k under the exact (distance, index)
        // order; its top is the candidate a new point must beat.
        let mut heap: BinaryHeap<Cand> = BinaryHeap::with_capacity(k + 1);
        // Squared chord past which a point is provably farther than the
        // current top; infinite until the heap holds k candidates.
        let mut prune_chord_sq = f64::INFINITY;
        let mut visited = 0u64;
        while let Some(Reverse(Cand { dist_km: bound_km, idx: ci })) = queue.pop() {
            // Strict >: at bound == kth distance an unvisited point could
            // still tie the distance with a smaller index and win the
            // tie-break, so only a strictly larger bound ends the search.
            if heap.len() == k && bound_km > heap.peek().expect("heap non-empty").dist_km {
                break;
            }
            let members = &self.cells[ci as usize].members;
            visited += members.len() as u64;
            for &pi in members {
                let p = &self.pre[pi as usize];
                // A point this far would lose to the top on distance alone;
                // skipping its haversine leaves the heap exactly as is.
                if geodesy::chord_sq(&target, p) > prune_chord_sq {
                    continue;
                }
                let cand = Cand {
                    dist_km: geodesy::haversine_km_pre(&target, p),
                    idx: pi,
                };
                if heap.len() < k {
                    heap.push(cand);
                } else if cand < *heap.peek().expect("heap non-empty") {
                    heap.pop();
                    heap.push(cand);
                } else {
                    continue;
                }
                if heap.len() == k {
                    let kth_km = heap.peek().expect("heap non-empty").dist_km;
                    prune_chord_sq = prune_chord_sq_beyond(kth_km);
                }
            }
        }

        let mut best = heap.into_vec();
        best.sort_unstable();
        (best.into_iter().map(|c| c.idx as usize).collect(), visited)
    }
}

/// The squared chord of central angle `dist_km / R` plus
/// [`BOUND_SLACK_RAD`]: a point whose chord to the target exceeds it lies
/// farther than `dist_km` in float haversine as well, since the slack
/// (~6 m) dwarfs the rounding of both. Infinite, so that nothing is
/// pruned, from [`PRUNE_MAX_RAD`] on: near the antipode chord length
/// stops resolving angle.
fn prune_chord_sq_beyond(dist_km: f64) -> f64 {
    let angle = dist_km / EARTH_RADIUS_KM + BOUND_SLACK_RAD;
    if angle >= PRUNE_MAX_RAD {
        return f64::INFINITY;
    }
    let half_chord = (angle / 2.0).sin();
    4.0 * half_chord * half_chord
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the index must reproduce exactly: full scan, stable
    /// sort on distance (ties keep ascending index), truncate.
    fn brute_force(points: &[LatLon], loc: LatLon, k: usize) -> Vec<usize> {
        let mut order: Vec<(usize, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.distance_km(&loc)))
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        order.truncate(k);
        order.into_iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let idx = GridIndex::build(&[]);
        assert_eq!(idx.nearest_k(LatLon::new(0.0, 0.0), 5).0, Vec::<usize>::new());
        let one = GridIndex::build(&[LatLon::new(52.5, 13.4)]);
        assert_eq!(one.nearest_k(LatLon::new(0.0, 0.0), 0).0, Vec::<usize>::new());
        assert_eq!(one.nearest_k(LatLon::new(0.0, 0.0), 3).0, vec![0]);
    }

    #[test]
    fn exact_ties_resolve_by_index() {
        // Five copies of the same point plus symmetric east/west twins:
        // equal float distances must come back in index order.
        let frankfurt = LatLon::new(50.1, 8.7);
        let pts = vec![
            LatLon::new(50.1, 9.7), // +1° east
            frankfurt,
            frankfurt,
            LatLon::new(50.1, 7.7), // -1° west: bit-equal distance to +1°
            frankfurt,
        ];
        let idx = GridIndex::build(&pts);
        let (got, _) = idx.nearest_k(frankfurt, 5);
        assert_eq!(got, brute_force(&pts, frankfurt, 5));
        assert_eq!(got, vec![1, 2, 4, 0, 3]);
    }

    #[test]
    fn poles_and_antimeridian_targets_match_brute_force() {
        // A deliberately nasty fixed mesh: pole clusters, antimeridian
        // straddlers, equator spread.
        let mut pts = Vec::new();
        for i in 0..40 {
            let f = i as f64;
            pts.push(LatLon::new(89.9 - 0.01 * f, -180.0 + 9.0 * f));
            pts.push(LatLon::new(-89.9 + 0.01 * f, 171.0 - 9.0 * f));
            pts.push(LatLon::new(0.3 * f - 6.0, 179.95 - 0.005 * f));
            pts.push(LatLon::new(0.3 * f - 6.0, -179.95 + 0.005 * f));
        }
        let idx = GridIndex::build(&pts);
        for target in [
            LatLon::new(90.0, 0.0),
            LatLon::new(-90.0, 45.0),
            LatLon::new(0.0, -180.0),
            LatLon::new(0.0, 179.999),
            LatLon::new(88.0, -179.0),
            LatLon::new(-88.0, 1.0),
        ] {
            for k in [1usize, 7, 40, pts.len(), pts.len() + 3] {
                assert_eq!(
                    idx.nearest_k(target, k).0,
                    brute_force(&pts, target, k),
                    "target {target:?} k {k}"
                );
            }
        }
    }

    #[test]
    fn index_visits_fewer_points_than_brute_force() {
        // Dense uniform-ish mesh: a small-k query must prune hard.
        let mut pts = Vec::new();
        for i in 0..60 {
            for j in 0..60 {
                pts.push(LatLon::new(
                    -87.0 + 2.9 * i as f64,
                    -179.0 + 5.9 * j as f64,
                ));
            }
        }
        let idx = GridIndex::build(&pts);
        let (got, visited) = idx.nearest_k(LatLon::new(48.0, 11.0), 10);
        assert_eq!(got, brute_force(&pts, LatLon::new(48.0, 11.0), 10));
        assert!(
            visited < pts.len() as u64 / 4,
            "visited {visited} of {}",
            pts.len()
        );
    }
}
