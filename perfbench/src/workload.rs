//! The three workloads, generated as DAG/config text from a seed.
//!
//! The seed permutes the axis order of every app's process grid (one
//! permutation per seed, shared by all apps): the piece shapes change,
//! the piece bytes do not. The program sees only the generated text.

/// How a workload is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Hub in the harness plus one re-executed joiner process per node.
    Distributed {
        /// PullData over direct node-to-node links, hub carries control.
        p2p: bool,
        /// Same-host PullData through `/dev/shm` segments.
        shm: bool,
    },
    /// One `run_threaded` call in the harness process.
    InProcess,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    /// Coupled iterations per run.
    pub iterations: u64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "bulk_star_shm",
        mode: Mode::Distributed {
            p2p: false,
            shm: true,
        },
        iterations: 16,
    },
    Workload {
        name: "bulk_p2p_tcp",
        mode: Mode::Distributed {
            p2p: true,
            shm: false,
        },
        iterations: 16,
    },
    Workload {
        name: "fanout_inproc",
        mode: Mode::InProcess,
        iterations: 16,
    },
];

/// Subscriber apps of `fanout_inproc`.
pub const FANOUT_SUBSCRIBERS: u32 = 4;

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The axis orders a seed chooses from. The last axis stays last: it
/// is the contiguous one in the row-major piece layout, and splitting it
/// turns whole-row copies into short strided ones (about 10% more time
/// per iteration on `fanout_inproc`), so a seed would change the work
/// per byte, not only the piece shapes.
const PERMUTATIONS: [[usize; 3]; 2] = [[0, 1, 2], [1, 0, 2]];

/// The axis permutation a seed selects (SplitMix64 of the seed, so
/// neighbouring seeds do not walk the permutations in order).
pub fn axis_order(seed: u64) -> [usize; 3] {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    PERMUTATIONS[(z % PERMUTATIONS.len() as u64) as usize]
}

/// `grid` with its axes reordered by `order`.
pub fn permute(grid: [u64; 3], order: [usize; 3]) -> [u64; 3] {
    [grid[order[0]], grid[order[1]], grid[order[2]]]
}

fn app_line(id: u32, grid: [u64; 3], order: [usize; 3]) -> String {
    let g = permute(grid, order);
    format!("APP {id} GRID {} {} {} DIST blocked\n", g[0], g[1], g[2])
}

impl Workload {
    /// The workflow DAG text.
    pub fn dag(&self) -> String {
        match self.mode {
            // workflows/distrib.dag: simulation (1) coupled concurrently
            // to analysis (2), sequentially to post-processing (3).
            Mode::Distributed { .. } => "APP_ID 1\nAPP_ID 2\nAPP_ID 3\n\
                 PARENT_APPID 1 CHILD_APPID 3\nBUNDLE 1 2\nBUNDLE 3\n"
                .to_string(),
            Mode::InProcess => {
                let apps = 2 + FANOUT_SUBSCRIBERS;
                let mut dag: String = (1..=apps).map(|a| format!("APP_ID {a}\n")).collect();
                let bundle: Vec<String> = (1..=apps).map(|a| a.to_string()).collect();
                dag.push_str(&format!("BUNDLE {}\n", bundle.join(" ")));
                dag
            }
        }
    }

    /// The workload configuration text for `seed`.
    pub fn config(&self, seed: u64) -> String {
        let order = axis_order(seed);
        match self.mode {
            // workflows/distrib.cfg scaled to 128^3: every producer
            // piece is 64x64x128 cells = 4 MiB, one whole shm arena.
            Mode::Distributed { .. } => {
                let mut cfg = format!(
                    "CORES_PER_NODE 4\nDOMAIN 128 128 128\nHALO 1\nITERATIONS {}\n",
                    self.iterations
                );
                cfg.push_str(&app_line(1, [2, 2, 1], order));
                cfg.push_str(&app_line(2, [2, 1, 2], order));
                cfg.push_str(&app_line(3, [1, 2, 2], order));
                cfg.push_str("COUPLING VAR temperature PRODUCER 1 CONSUMERS 2 MODE concurrent\n");
                cfg.push_str("COUPLING VAR pressure PRODUCER 1 CONSUMERS 3 MODE sequential\n");
                cfg
            }
            // workflows/monitor.toml scaled up, with four full-domain
            // subscribers instead of one.
            Mode::InProcess => {
                let mut cfg = format!(
                    "CORES_PER_NODE 8\nDOMAIN 128 128 64\nHALO 1\nITERATIONS {}\n",
                    self.iterations
                );
                cfg.push_str(&app_line(1, [2, 1, 1], order));
                for app in 2..=2 + FANOUT_SUBSCRIBERS {
                    cfg.push_str(&app_line(app, [1, 1, 1], order));
                }
                cfg.push_str("COUPLING VAR temperature PRODUCER 1 CONSUMERS 2 MODE concurrent\n");
                for app in 3..=2 + FANOUT_SUBSCRIBERS {
                    cfg.push_str(&format!(
                        "SUBSCRIBE VAR temperature PRODUCER 1 SUBSCRIBER {app} EVERY 1 QUEUE 8\n"
                    ));
                }
                cfg
            }
        }
    }
}
