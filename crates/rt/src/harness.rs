//! In-process assembly of a whole Gage deployment (front end + back ends)
//! for tests, examples and quick experiments.

use std::net::TcpListener;
use std::time::Duration;

use gage_core::resource::Grps;

use crate::backend::{spawn_backend_on, BackendConfig, BackendCost, BackendHandle};
use crate::frontend::{spawn_frontend, FrontendConfig, FrontendHandle, SiteConfig, TRACE_CAPACITY};

/// A running in-process deployment.
#[derive(Debug)]
pub struct Deployment {
    /// The front end.
    pub frontend: FrontendHandle,
    /// The back ends.
    pub backends: Vec<BackendHandle>,
}

/// Options for [`deploy`].
#[derive(Debug, Clone)]
pub struct DeployOptions {
    /// Number of back ends.
    pub backends: usize,
    /// Hosted sites: (host, reservation GRPS).
    pub sites: Vec<(String, f64)>,
    /// Back-end cost model.
    pub cost: BackendCost,
    /// Accounting cycle.
    pub accounting_cycle: Duration,
}

impl Default for DeployOptions {
    fn default() -> Self {
        DeployOptions {
            backends: 2,
            sites: vec![("site1.local".to_string(), 100.0)],
            cost: BackendCost::default(),
            accounting_cycle: Duration::from_millis(100),
        }
    }
}

/// Spawns back ends on ephemeral loopback ports and a front end wired to
/// them, with accounting reports flowing. The front end records a trace
/// ring of [`TRACE_CAPACITY`] records, as `gage-rdn --trace` does, so a
/// test can audit the run from [`FrontendHandle::trace_dump`].
///
/// # Errors
///
/// Propagates bind/spawn failures.
pub fn deploy(opts: DeployOptions) -> std::io::Result<Deployment> {
    // Pre-bind the back-end listeners so the front end can be configured
    // with their final addresses before any server starts.
    let mut listeners = Vec::new();
    let mut backend_addrs = Vec::new();
    for _ in 0..opts.backends {
        let l = TcpListener::bind("127.0.0.1:0")?;
        backend_addrs.push(l.local_addr()?);
        listeners.push(l);
    }

    let sites = opts
        .sites
        .iter()
        .map(|(host, grps)| SiteConfig {
            host: host.clone(),
            reservation: Grps(*grps),
        })
        .collect();
    let frontend = spawn_frontend(FrontendConfig {
        trace_capacity: Some(TRACE_CAPACITY),
        ..FrontendConfig::loopback(sites, backend_addrs)
    })?;

    let mut backends = Vec::new();
    for listener in listeners {
        backends.push(spawn_backend_on(
            listener,
            BackendConfig {
                report_to: Some(frontend.control_addr),
                cost: opts.cost,
                accounting_cycle: opts.accounting_cycle,
                ..Default::default()
            },
        )?);
    }

    Ok(Deployment { frontend, backends })
}
