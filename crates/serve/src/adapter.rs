//! Routing the workload suite's block path through the service.
//!
//! [`ServedBlockDev`] owns a whole service plus one session and implements
//! `dlt_workloads::block::BlockDev`, so every Figure-5 workload can run
//! against the multi-tenant scheduler + coalescer instead of an
//! exclusively-owned replayer (`dlt_workloads::block::DriverletDev`).

use std::collections::HashMap;

use dlt_core::SecureBlockIo;
use dlt_workloads::block::BlockDev;

use crate::service::{DriverletService, ServeConfig};
use crate::{Device, ServeError, SessionId};

/// A block device served through one session of a [`DriverletService`].
pub struct ServedBlockDev {
    service: DriverletService,
    session: SessionId,
    device: Device,
}

impl ServedBlockDev {
    /// Stand up a single-device service and open one session on it.
    pub fn new(device: Device, config: ServeConfig) -> Result<Self, ServeError> {
        assert!(device != Device::Vchiq, "ServedBlockDev serves block devices");
        let mut service = DriverletService::new(&[device], config)?;
        let session = service.open_session()?;
        Ok(ServedBlockDev { service, session, device })
    }

    /// The underlying service (stats, more sessions).
    pub fn service_mut(&mut self) -> &mut DriverletService {
        &mut self.service
    }
}

/// Block IO through [`DriverletService::session_io`], the handle trustlets
/// hold, so the suite and the trustlets share one round-trip path.
impl BlockDev for ServedBlockDev {
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
        self.service
            .session_io(self.session, self.device)
            .read_blocks(blkid, blkcnt, buf)
            .map_err(|e| e.to_string())
    }

    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
        self.service
            .session_io(self.session, self.device)
            .write_blocks(blkid, data)
            .map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Result<(), String> {
        // Served IO is synchronous at completion time: nothing to flush.
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        self.service.now_ns()
    }

    fn invocation_breakdown(&self) -> HashMap<u32, u64> {
        HashMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_workloads::suite::{run_benchmark_on, SqliteBenchmark};
    use dlt_workloads::{StorageKind, StoragePath};

    #[test]
    fn the_sqlite_suite_runs_through_the_service() {
        let dev = ServedBlockDev::new(Device::Mmc, ServeConfig::quick()).expect("served dev");
        let r = run_benchmark_on(
            dev,
            SqliteBenchmark::Select3,
            StorageKind::Mmc,
            StoragePath::Driverlet,
            10,
        )
        .expect("suite over the service");
        assert!(r.iops > 0.0);
        assert!(r.page_io.0 > 0);
    }
}
