//! # p10-powermodel
//!
//! Counter-based power modeling, from scratch: the machinery behind the
//! paper's M1-linked power models (Fig. 11), the top-down vs bottom-up
//! comparison (Fig. 12), and the hardware power proxy (Fig. 15).
//!
//! * [`Dataset`] — samples of (performance-counter features → measured
//!   power), with named features.
//! * [`LinearModel`] / [`fit`] — least-squares regression via normal
//!   equations (ridge-stabilized Gaussian elimination), with optional
//!   non-negative-coefficient and no-intercept constraints — the same
//!   modeling-constraint space the paper's design exploration sweeps.
//! * [`forward_select`] — greedy forward feature selection: the
//!   "systematically selected" minimal input sets.
//! * [`error curves`](input_sweep) — model error as a function of the
//!   number of inputs, the x-axis of Figs. 11 and 15(a).
//!
//! The experiment drivers that generate datasets from simulation live in
//! `p10-core`; this crate is pure math and fully testable standalone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod linalg;
mod regress;
mod select;

pub use dataset::Dataset;
pub use linalg::{solve_normal_equations, Gram};
pub use regress::{fit, FitCache, FitOptions, LinearModel};
pub use select::{forward_select, input_sweep, SweepPoint};
