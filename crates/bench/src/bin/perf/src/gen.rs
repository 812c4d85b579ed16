//! The load generator: everything the seed decides.
//!
//! The seed drives only this module — which object each session opens,
//! when requests arrive on the *simulated* clock, where faults land, which
//! frames an edit list selects. The program under test sees only the
//! generated inputs, and wall-clock time never feeds back into a script,
//! so the load is identical however fast the code runs. Media *content* is
//! fixed across seeds so that encoded sizes, and with them the work per
//! element, do not move with the seed.

/// A counted splitmix64 stream (the generator the repo's fault injectors
/// use, kept separate so benchmark draws never perturb theirs).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`: two purposes of one seed never share
    /// draws.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One scripted request. Sessions are named by script-local index — the
/// k-th `Open` of the script — because the server assigns the real ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Open a session on object number `object` of the catalog.
    Open {
        /// Index into the workload's object-name table.
        object: u32,
    },
    /// Start or resume session `s`.
    Play {
        /// Script-local session index.
        s: u32,
    },
    /// Pause session `s`.
    Pause {
        /// Script-local session index.
        s: u32,
    },
    /// Seek session `s` to `to_ms` on the stream timeline.
    Seek {
        /// Script-local session index.
        s: u32,
        /// Target position, milliseconds.
        to_ms: u32,
    },
    /// Set session `s`'s rate to `num/den`.
    SetRate {
        /// Script-local session index.
        s: u32,
        /// Rate numerator.
        num: u32,
        /// Rate denominator.
        den: u32,
    },
    /// Close session `s`.
    Close {
        /// Script-local session index.
        s: u32,
    },
}

/// A request and the simulated instant it is sent at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Simulated send time, microseconds.
    pub at_us: i64,
    /// The request.
    pub op: Op,
}

/// A whole request script in send order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Script {
    /// The requests, non-decreasing in `at_us`.
    pub steps: Vec<Step>,
    /// Number of `Open`s, i.e. script-local session indices in use.
    pub sessions: u32,
}

impl Script {
    fn open_and_play(&mut self, at_us: i64, object: u32) -> u32 {
        let s = self.sessions;
        self.sessions += 1;
        self.steps.push(Step {
            at_us,
            op: Op::Open { object },
        });
        self.steps.push(Step {
            at_us,
            op: Op::Play { s },
        });
        s
    }

    /// FNV-1a over a canonical encoding of every step: equal digests mean
    /// equal scripts.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for step in &self.steps {
            h.write(&step.at_us.to_le_bytes());
            let (tag, a, b, c) = match step.op {
                Op::Open { object } => (0u8, object, 0, 0),
                Op::Play { s } => (1, s, 0, 0),
                Op::Pause { s } => (2, s, 0, 0),
                Op::Seek { s, to_ms } => (3, s, to_ms, 0),
                Op::SetRate { s, num, den } => (4, s, num, den),
                Op::Close { s } => (5, s, 0, 0),
            };
            h.write(&[tag]);
            for word in [a, b, c] {
                h.write(&word.to_le_bytes());
            }
        }
        h.finish()
    }
}

/// 64-bit FNV-1a, for script and output digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The hash of one string.
    pub fn of(text: &str) -> u64 {
        let mut h = Fnv::default();
        h.write(text.as_bytes());
        h.finish()
    }
}

/// `storm_hot`: `sessions` sessions, all `Open` + `Play` at t = 0, spread
/// evenly over `objects` objects in a seeded order.
pub fn storm_hot_script(seed: u64, sessions: u32, objects: u32) -> Script {
    let mut rng = Rng::new(seed, 1);
    let mut choice: Vec<u32> = (0..sessions).map(|i| i % objects).collect();
    rng.shuffle(&mut choice);
    let mut script = Script::default();
    for object in choice {
        script.open_and_play(0, object);
    }
    script
}

/// `storm_cold`: `waves` waves `wave_us` apart; each wave opens one
/// session on every object, in a fresh seeded order, spread evenly across
/// the wave. Two sessions on one object are therefore about a whole wave —
/// a whole working set of reads — apart, which is what keeps an LRU of a
/// fraction of the working set from hitting.
pub fn storm_cold_script(seed: u64, waves: u32, objects: u32, wave_us: i64) -> Script {
    let mut rng = Rng::new(seed, 2);
    let mut script = Script::default();
    let mut order: Vec<u32> = (0..objects).collect();
    for w in 0..waves {
        rng.shuffle(&mut order);
        for (k, &object) in order.iter().enumerate() {
            let at = i64::from(w) * wave_us + k as i64 * wave_us / i64::from(objects);
            script.open_and_play(at, object);
        }
    }
    script
}

/// Shape of the `session_churn` script.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    /// Sessions opened over the script.
    pub sessions: u32,
    /// Catalog size.
    pub objects: u32,
    /// Mean simulated gap between two opens, microseconds.
    pub mean_gap_us: u64,
    /// One element's duration, microseconds (40 000 for PAL).
    pub element_us: u64,
    /// Elements per object.
    pub elements: u32,
}

/// `session_churn`: sessions arrive with seeded gaps; each opens a seeded
/// object, plays, is poked twice by a seeded mix of `Seek` / `Pause`+`Play`
/// / `SetRate` / nothing, and closes after a seeded 1–11 elements' worth of
/// time (mean 6). Requests of all sessions are merged into one
/// time-ordered script.
pub fn churn_script(seed: u64, shape: ChurnShape) -> Script {
    let mut rng = Rng::new(seed, 3);
    // (time, arrival order, op with session index) — the arrival order
    // keeps the merge stable among equal times.
    let mut timed: Vec<(i64, u32, Op)> = Vec::new();
    // No scripted request may fail, so a session must still be playing when
    // its last poke and its close arrive: at most 11 elements of lifetime
    // at up to 2x speed is 22 elements, and a seek always leaves 25.
    assert!(
        shape.elements > 25,
        "churn objects need more than 25 elements"
    );
    let seek_span_us = u64::from(shape.elements - 25) * shape.element_us;
    let mut at = 0i64;
    for s in 0..shape.sessions {
        at += rng.below(2 * shape.mean_gap_us) as i64;
        let object = rng.below(u64::from(shape.objects)) as u32;
        timed.push((at, s, Op::Open { object }));
        timed.push((at, s, Op::Play { s }));
        let play_elements = 1 + rng.below(11);
        let mut t = at;
        let step = (play_elements * shape.element_us / 3) as i64;
        // Up to two pokes on the way, each a third of the lifetime in.
        for _ in 0..2 {
            t += step;
            match rng.below(10) {
                0..=2 => {
                    let to_ms = rng.below(seek_span_us / 1000);
                    timed.push((
                        t,
                        s,
                        Op::Seek {
                            s,
                            to_ms: to_ms as u32,
                        },
                    ));
                }
                3..=4 => {
                    timed.push((t, s, Op::Pause { s }));
                    timed.push((t + step / 2, s, Op::Play { s }));
                }
                5..=6 => {
                    let (num, den) = [(2, 1), (1, 2), (3, 2)][rng.below(3) as usize];
                    timed.push((t, s, Op::SetRate { s, num, den }));
                }
                _ => {}
            }
        }
        timed.push((
            at + (play_elements * shape.element_us) as i64,
            s,
            Op::Close { s },
        ));
    }
    // A stable sort keeps each session's own requests in program order
    // (a pause's resume can share an instant with the next poke).
    timed.sort_by_key(|&(t, _, _)| t);
    Script {
        steps: timed
            .into_iter()
            .map(|(at_us, _, op)| Step { at_us, op })
            .collect(),
        sessions: shape.sessions,
    }
}

/// `fleet_incident`: `sessions` sessions arriving at seeded instants over
/// the first `window_us`, on seeded objects.
pub fn fleet_script(seed: u64, sessions: u32, objects: u32, window_us: u64) -> Script {
    let mut rng = Rng::new(seed, 4);
    let mut arrivals: Vec<(i64, u32)> = (0..sessions)
        .map(|_| {
            (
                rng.below(window_us) as i64,
                rng.below(u64::from(objects)) as u32,
            )
        })
        .collect();
    arrivals.sort_unstable();
    let mut script = Script::default();
    for (at, object) in arrivals {
        script.open_and_play(at, object);
    }
    script
}

/// Fault instants of `fleet_incident`, microseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetFaults {
    /// Node 1 crashes here…
    pub crash_us: i64,
    /// …and restarts here.
    pub restart_us: i64,
    /// Node 2 browns out from here…
    pub brownout_from_us: i64,
    /// …to here.
    pub brownout_to_us: i64,
}

/// Seeded fault instants: the brownout starts while sessions are still
/// arriving, the crash lands mid-playback.
pub fn fleet_faults(seed: u64) -> FleetFaults {
    let mut rng = Rng::new(seed, 5);
    let crash_us = 1_600_000 + rng.below(800_000) as i64;
    let brownout_from_us = 400_000 + rng.below(400_000) as i64;
    FleetFaults {
        crash_us,
        restart_us: crash_us + 1_200_000,
        brownout_from_us,
        brownout_to_us: brownout_from_us + 1_500_000,
    }
}

/// The seeded part of `media_pipeline`'s derivation: `cuts` selections of
/// `cut_frames` frames each from a `source_frames`-frame clip. The output
/// length is the same for every seed; only where the cuts land moves.
pub fn edit_cuts(seed: u64, cuts: u32, cut_frames: u32, source_frames: u32) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed, 6);
    (0..cuts)
        .map(|_| {
            let from = rng.below(u64::from(source_frames - cut_frames)) as u32;
            (from, from + cut_frames)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHURN: ChurnShape = ChurnShape {
        sessions: 500,
        objects: 12,
        mean_gap_us: 5_000,
        element_us: 40_000,
        elements: 48,
    };

    fn all_scripts(seed: u64) -> [Script; 4] {
        [
            storm_hot_script(seed, 256, 16),
            storm_cold_script(seed, 4, 64, 2_000_000),
            churn_script(seed, CHURN),
            fleet_script(seed, 300, 32, 1_000_000),
        ]
    }

    #[test]
    fn same_seed_same_script_different_seed_different_script() {
        for (a, (b, c)) in all_scripts(7)
            .iter()
            .zip(all_scripts(7).iter().zip(all_scripts(8).iter()))
        {
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
            assert_ne!(a.digest(), c.digest(), "a new seed must move the script");
        }
        assert_eq!(fleet_faults(7), fleet_faults(7));
        assert_ne!(fleet_faults(7), fleet_faults(8));
        assert_eq!(edit_cuts(7, 5, 30, 250), edit_cuts(7, 5, 30, 250));
        assert_ne!(edit_cuts(7, 5, 30, 250), edit_cuts(8, 5, 30, 250));
    }

    #[test]
    fn scripts_are_time_ordered_and_reference_open_sessions_only() {
        for script in all_scripts(11) {
            let mut opened = 0u32;
            let mut last = i64::MIN;
            for step in &script.steps {
                assert!(step.at_us >= last, "send times must not go back");
                last = step.at_us;
                match step.op {
                    Op::Open { .. } => opened += 1,
                    Op::Play { s }
                    | Op::Pause { s }
                    | Op::Seek { s, .. }
                    | Op::SetRate { s, .. }
                    | Op::Close { s } => assert!(s < opened, "session {s} used before its Open"),
                }
            }
            assert_eq!(opened, script.sessions);
        }
    }

    #[test]
    fn storm_scripts_are_balanced_over_objects() {
        let hot = storm_hot_script(3, 256, 16);
        let mut per_object = [0u32; 16];
        for step in &hot.steps {
            if let Op::Open { object } = step.op {
                per_object[object as usize] += 1;
            }
        }
        assert_eq!(per_object, [16; 16]);
        let cold = storm_cold_script(3, 4, 64, 2_000_000);
        assert_eq!(cold.sessions, 4 * 64);
        assert_eq!(
            cold.steps.last().unwrap().at_us,
            3 * 2_000_000 + 63 * 31_250
        );
    }

    #[test]
    fn churn_sessions_play_six_elements_on_average_and_all_close() {
        let script = churn_script(5, CHURN);
        let (mut opens, mut closes, mut lifetime) = (vec![0i64; 500], 0u32, 0i64);
        for step in &script.steps {
            match step.op {
                Op::Play { s } if opens[s as usize] == 0 => opens[s as usize] = step.at_us.max(1),
                Op::Close { s } => {
                    closes += 1;
                    lifetime += step.at_us - opens[s as usize];
                }
                _ => {}
            }
        }
        assert_eq!(closes, 500);
        let mean_elements = lifetime as f64 / 500.0 / 40_000.0;
        assert!(
            (5.0..7.0).contains(&mean_elements),
            "mean lifetime {mean_elements:.2} elements"
        );
        assert!(script.steps.len() >= 500 * 3);
    }

    #[test]
    fn edit_cuts_stay_inside_the_source() {
        for seed in 0..50 {
            for (from, to) in edit_cuts(seed, 5, 30, 250) {
                assert!(to <= 250 && to - from == 30);
            }
        }
    }
}
