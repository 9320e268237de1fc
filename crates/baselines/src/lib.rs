//! Execution harness and the paper's comparison systems.
//!
//! Two executors replay a [`deepum_torch::step::Workload`] against the
//! simulated platform:
//!
//! * [`executor::um`] — the UM path: allocations go to UM space, kernels
//!   run on the [`deepum_gpu::engine::GpuEngine`] against any backend
//!   implementing `UmBackend + LaunchObserver`. Used by the **naive UM**
//!   baseline ([`naive::NaiveUm`]) and **DeepUM**
//!   (`deepum_core::DeepumDriver`). The pass is one resumable stepper,
//!   [`executor::um::UmRun`], which the multi-tenant scheduler also
//!   steps, one per tenant.
//! * [`executor::swap`] — the tensor-granularity swapping path used by
//!   the non-UM systems: tensors move whole between device and host on
//!   an explicit schedule chosen by a [`strategies::SwapStrategy`]:
//!   IBM **LMS** / **LMS-mod**, **vDNN**, **AutoTM**, **SwapAdvisor**,
//!   **Capuchin**, and **Sentinel**.
//!
//! [`ideal::run_ideal`] produces the paper's *Ideal* upper bound
//! (execution with no memory oversubscription, scaled with batch size).
//!
//! Every run yields a [`report::RunReport`] with per-iteration virtual
//! time, energy, and the full counter set, from which the bench crate
//! regenerates the paper's tables and figures.
//!
//! The strategies are *policy* reproductions built from each system's
//! published mechanism, not line-for-line ports; see each module's
//! documentation for the mapping and the approximations taken.

#![forbid(unsafe_code)]

pub mod executor;
pub mod ideal;
pub mod naive;
pub mod report;
pub mod strategies;
pub mod suite;

pub use executor::swap::{run_swap, SwapRunConfig};
pub use executor::um::{run_um, UmRunConfig};
pub use ideal::run_ideal;
pub use naive::NaiveUm;
pub use report::{IterStats, RunError, RunReport};
pub use strategies::{Capabilities, SwapStrategy};
pub use suite::{run_system, RunParams, System};
