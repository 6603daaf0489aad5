//! D3Q19 lattice-Boltzmann method (BGK collision) for 3-D channel flows.
//!
//! This is the simulation side of the paper's CFD workflow: "LBM is a
//! numerical method to solve Navier-Stokes equations… Collision and
//! streaming are two phases in each simulation time step" (§3). The
//! paper's traces additionally show an *update* (UD) phase recomputing the
//! macroscopic moments; we keep the same three-phase structure so the trace
//! comparisons are like-for-like.
//!
//! The kernel is a standard incompressible D3Q19 BGK scheme with periodic
//! boundaries and a constant body force (gravity-driven channel flow à la
//! Zhu et al., the paper's application), using the Shan–Chen velocity-shift
//! forcing. It is deliberately self-contained: `step()` runs
//! collision → streaming → update, and `velocity_bytes()` serializes the
//! velocity field — the slab the workflow ships to the turbulence analysis
//! every step.

// Dimension-indexed loops over coupled arrays are the clearest idiom in
// these numerical kernels; iterator rewrites would obscure the physics.
#![allow(clippy::needless_range_loop)]

use bytes::Bytes;

/// D3Q19 discrete velocity set.
const E: [[i32; 3]; 19] = [
    [0, 0, 0],
    [1, 0, 0],
    [-1, 0, 0],
    [0, 1, 0],
    [0, -1, 0],
    [0, 0, 1],
    [0, 0, -1],
    [1, 1, 0],
    [-1, -1, 0],
    [1, -1, 0],
    [-1, 1, 0],
    [1, 0, 1],
    [-1, 0, -1],
    [1, 0, -1],
    [-1, 0, 1],
    [0, 1, 1],
    [0, -1, -1],
    [0, 1, -1],
    [0, -1, 1],
];

/// D3Q19 lattice weights.
const W: [f64; 19] = [
    1.0 / 3.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

const Q: usize = 19;

/// Index of the opposite direction of each `E[i]` (for bounce-back).
const OPP: [usize; 19] = [
    0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
];

/// A D3Q19 lattice-Boltzmann subdomain with periodic boundaries.
pub struct Lbm {
    nx: usize,
    ny: usize,
    nz: usize,
    /// BGK relaxation time (τ > 0.5 for stability).
    tau: f64,
    /// Constant body force density.
    force: [f64; 3],
    /// Distribution functions, `f[cell * 19 + i]`.
    f: Vec<f64>,
    ftmp: Vec<f64>,
    /// Macroscopic density per cell.
    rho: Vec<f64>,
    /// Macroscopic velocity per cell.
    u: Vec<[f64; 3]>,
    /// No-slip walls at y = 0 and y = ny−1 (the paper's application is a
    /// 3-D channel flow between walls, per Zhu et al.).
    channel_walls: bool,
    steps_run: u64,
}

impl Lbm {
    /// Create a subdomain initialized to uniform density 1 at rest.
    pub fn new(nx: usize, ny: usize, nz: usize, tau: f64, force: [f64; 3]) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid dims must be positive");
        assert!(tau > 0.5, "BGK needs tau > 0.5 for stability, got {tau}");
        let n = nx * ny * nz;
        let mut f = vec![0.0; n * Q];
        for c in 0..n {
            for i in 0..Q {
                f[c * Q + i] = W[i]; // equilibrium at rho=1, u=0
            }
        }
        Lbm {
            nx,
            ny,
            nz,
            tau,
            force,
            ftmp: f.clone(),
            f,
            rho: vec![1.0; n],
            u: vec![[0.0; 3]; n],
            channel_walls: false,
            steps_run: 0,
        }
    }

    /// Turn the y-extremes into no-slip walls (full bounce-back): the
    /// channel-flow geometry of the paper's CFD application. Requires
    /// ny ≥ 3 so fluid remains between the walls.
    pub fn with_channel_walls(mut self) -> Self {
        assert!(self.ny >= 3, "channel walls need ny >= 3");
        self.channel_walls = true;
        self
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.ny + y) * self.nx + x
    }

    /// Number of lattice cells.
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Steps executed so far.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Equilibrium distribution for direction `i` at `(rho, u)`.
    #[inline]
    fn feq(i: usize, rho: f64, u: [f64; 3]) -> f64 {
        let eu = E[i][0] as f64 * u[0] + E[i][1] as f64 * u[1] + E[i][2] as f64 * u[2];
        let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
        W[i] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * uu)
    }

    /// Phase 1 (paper's "CL"): BGK relaxation toward local equilibrium,
    /// with the body force folded in via the Shan–Chen velocity shift.
    pub fn collision(&mut self) {
        let inv_tau = 1.0 / self.tau;
        for c in 0..self.cells() {
            let rho = self.rho[c];
            let mut ueq = self.u[c];
            // Velocity shift: u_eq = u + tau * F / rho.
            for d in 0..3 {
                ueq[d] += self.tau * self.force[d] / rho;
            }
            for i in 0..Q {
                let feq = Self::feq(i, rho, ueq);
                let fi = &mut self.f[c * Q + i];
                *fi -= (*fi - feq) * inv_tau;
            }
        }
    }

    /// Phase 2 (paper's "ST"): propagate distributions to neighbor cells,
    /// periodic in all directions. In the distributed workflow this is the
    /// phase containing the halo exchange (`MPI_Sendrecv`).
    pub fn streaming(&mut self) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let c = self.idx(x, y, z);
                    for (i, e) in E.iter().enumerate() {
                        let yi = y as i32 + e[1];
                        // Full bounce-back at the channel walls: a
                        // distribution headed into a wall returns to its
                        // source cell with reversed direction (no-slip).
                        if self.channel_walls && (yi < 0 || yi >= ny as i32) {
                            self.ftmp[c * Q + OPP[i]] = self.f[c * Q + i];
                            continue;
                        }
                        let xx = (x as i32 + e[0]).rem_euclid(nx as i32) as usize;
                        let yy = yi.rem_euclid(ny as i32) as usize;
                        let zz = (z as i32 + e[2]).rem_euclid(nz as i32) as usize;
                        let t = self.idx(xx, yy, zz);
                        self.ftmp[t * Q + i] = self.f[c * Q + i];
                    }
                }
            }
        }
        std::mem::swap(&mut self.f, &mut self.ftmp);
    }

    /// Phase 3 (paper's "UD"): recompute macroscopic density and velocity.
    pub fn update(&mut self) {
        for c in 0..self.cells() {
            let mut rho = 0.0;
            let mut mom = [0.0f64; 3];
            for i in 0..Q {
                let fi = self.f[c * Q + i];
                rho += fi;
                mom[0] += fi * E[i][0] as f64;
                mom[1] += fi * E[i][1] as f64;
                mom[2] += fi * E[i][2] as f64;
            }
            self.rho[c] = rho;
            self.u[c] = [mom[0] / rho, mom[1] / rho, mom[2] / rho];
        }
        self.steps_run += 1;
    }

    /// One full time step: collision → streaming → update.
    pub fn step(&mut self) {
        self.collision();
        self.streaming();
        self.update();
    }

    /// Total mass (must be conserved exactly up to FP rounding).
    pub fn total_mass(&self) -> f64 {
        self.rho.iter().sum()
    }

    /// Domain-mean velocity.
    pub fn mean_velocity(&self) -> [f64; 3] {
        let n = self.cells() as f64;
        let mut m = [0.0f64; 3];
        for u in &self.u {
            m[0] += u[0];
            m[1] += u[1];
            m[2] += u[2];
        }
        [m[0] / n, m[1] / n, m[2] / n]
    }

    /// The per-cell velocity magnitude-x component stream the turbulence
    /// analysis consumes: `u_x` for every cell, little-endian `f64`s.
    /// (The paper's analysis computes moments of the velocity distribution
    /// `u(x, t)`; one component per cell matches its 16 MB/step/process
    /// output volume for a 64×64×256 subgrid… at `f64` halved; the shape,
    /// not the constant, is what matters downstream.)
    pub fn velocity_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.cells() * 8);
        for u in &self.u {
            out.extend_from_slice(&u[0].to_le_bytes());
        }
        Bytes::from(out)
    }

    /// Borrow the raw velocity field.
    pub fn velocities(&self) -> &[[f64; 3]] {
        &self.u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one_and_velocities_balance() {
        let sw: f64 = W.iter().sum();
        assert!((sw - 1.0).abs() < 1e-15);
        let mut sum = [0i32; 3];
        for e in E {
            sum[0] += e[0];
            sum[1] += e[1];
            sum[2] += e[2];
        }
        assert_eq!(sum, [0, 0, 0]);
    }

    #[test]
    fn uniform_rest_state_is_stationary_without_force() {
        let mut lbm = Lbm::new(6, 6, 6, 0.8, [0.0; 3]);
        let m0 = lbm.total_mass();
        for _ in 0..5 {
            lbm.step();
        }
        assert!((lbm.total_mass() - m0).abs() < 1e-9);
        let v = lbm.mean_velocity();
        assert!(v[0].abs() < 1e-12 && v[1].abs() < 1e-12 && v[2].abs() < 1e-12);
    }

    #[test]
    fn mass_is_conserved_under_forcing() {
        let mut lbm = Lbm::new(8, 4, 4, 0.9, [1e-5, 0.0, 0.0]);
        let m0 = lbm.total_mass();
        for _ in 0..20 {
            lbm.step();
        }
        assert!(
            (lbm.total_mass() - m0).abs() / m0 < 1e-10,
            "mass drifted: {} -> {}",
            m0,
            lbm.total_mass()
        );
    }

    #[test]
    fn body_force_accelerates_flow_along_x() {
        let mut lbm = Lbm::new(8, 4, 4, 0.9, [1e-5, 0.0, 0.0]);
        for _ in 0..10 {
            lbm.step();
        }
        let v10 = lbm.mean_velocity();
        for _ in 0..10 {
            lbm.step();
        }
        let v20 = lbm.mean_velocity();
        assert!(v10[0] > 0.0, "flow should start moving, got {v10:?}");
        assert!(v20[0] > v10[0], "flow should keep accelerating");
        assert!(v20[1].abs() < 1e-12 && v20[2].abs() < 1e-12);
    }

    #[test]
    fn streaming_moves_distributions_periodically() {
        let mut lbm = Lbm::new(4, 1, 1, 0.8, [0.0; 3]);
        // Put an impulse in direction +x at cell 0 and stream 4 times:
        // it should wrap around back to cell 0.
        lbm.f[1] += 0.5; // cell 0, direction index 1 (+x)
        let probe = |l: &Lbm, x: usize| l.f[l.idx(x, 0, 0) * Q + 1];
        assert!(probe(&lbm, 0) > W[1]);
        lbm.streaming();
        assert!(probe(&lbm, 1) > W[1]);
        lbm.streaming();
        lbm.streaming();
        lbm.streaming();
        assert!(probe(&lbm, 0) > W[1]);
    }

    #[test]
    fn velocity_bytes_has_one_f64_per_cell() {
        let lbm = Lbm::new(3, 4, 5, 0.8, [0.0; 3]);
        assert_eq!(lbm.velocity_bytes().len(), 3 * 4 * 5 * 8);
    }

    #[test]
    #[should_panic(expected = "tau > 0.5")]
    fn unstable_tau_rejected() {
        let _ = Lbm::new(2, 2, 2, 0.4, [0.0; 3]);
    }

    #[test]
    fn opposite_directions_are_consistent() {
        for i in 0..19 {
            let (e, o) = (E[i], E[OPP[i]]);
            assert_eq!([e[0] + o[0], e[1] + o[1], e[2] + o[2]], [0, 0, 0]);
            assert_eq!(OPP[OPP[i]], i, "opposite must be an involution");
        }
    }

    #[test]
    fn channel_walls_conserve_mass() {
        let mut lbm = Lbm::new(8, 7, 4, 0.9, [1e-5, 0.0, 0.0]).with_channel_walls();
        let m0 = lbm.total_mass();
        for _ in 0..30 {
            lbm.step();
        }
        assert!((lbm.total_mass() - m0).abs() / m0 < 1e-10);
    }

    #[test]
    fn channel_flow_develops_a_no_slip_profile() {
        // Poiseuille-like: the streamwise velocity peaks mid-channel and
        // drops toward the bounce-back walls.
        let mut lbm = Lbm::new(6, 9, 4, 0.9, [1e-5, 0.0, 0.0]).with_channel_walls();
        for _ in 0..200 {
            lbm.step();
        }
        let profile: Vec<f64> = (0..9)
            .map(|y| {
                let mut sum = 0.0;
                for z in 0..4 {
                    for x in 0..6 {
                        sum += lbm.velocities()[lbm.idx(x, y, z)][0];
                    }
                }
                sum / 24.0
            })
            .collect();
        let mid = profile[4];
        assert!(mid > 0.0, "flow should move: {profile:?}");
        assert!(
            profile[0] < mid * 0.75 && profile[8] < mid * 0.75,
            "near-wall flow must be slower: {profile:?}"
        );
        // Symmetry about the channel centre.
        for y in 0..4 {
            let rel = (profile[y] - profile[8 - y]).abs() / mid;
            assert!(rel < 0.05, "asymmetric profile: {profile:?}");
        }
    }
}
