//! Shared fixtures of the DRAM-twin tests: a module whose fault model
//! the test keeps a handle on, so it can compare model state
//! (`accumulated`, retention cells) across twins.

use rh_dram::{
    BankId, BitFlip, DisturbanceModel, DramModule, Manufacturer, ModuleConfig, Picos, RowAddr,
};
use rh_faultmodel::RowHammerModel;
use std::sync::{Arc, Mutex, MutexGuard};

/// Forwards every hook, `hammer_round_robin` included, to a model the
/// test keeps a handle on (to read `accumulated`).
pub struct Shared(pub Arc<Mutex<RowHammerModel>>);

impl Shared {
    fn lock(&self) -> MutexGuard<'_, RowHammerModel> {
        self.0.lock().unwrap()
    }
}

impl DisturbanceModel for Shared {
    fn configure_geometry(&mut self, rows_per_bank: u32, row_bytes: usize) {
        self.lock().configure_geometry(rows_per_bank, row_bytes);
    }
    fn on_hammer(&mut self, bank: BankId, row: RowAddr, count: u64, t_on: Picos, t_off: Picos) {
        self.lock().on_hammer(bank, row, count, t_on, t_off);
    }
    fn hammer_round_robin(
        &mut self,
        bank: BankId,
        rows: &[RowAddr],
        start: usize,
        acts: u64,
        now: Picos,
        timing: (Picos, Picos),
    ) -> u64 {
        self.lock().hammer_round_robin(bank, rows, start, acts, now, timing)
    }
    fn flips_on_activate(
        &mut self,
        bank: BankId,
        row: RowAddr,
        data: &[u8],
        now: Picos,
    ) -> Vec<BitFlip> {
        self.lock().flips_on_activate(bank, row, data, now)
    }
    fn on_restore(&mut self, bank: BankId, row: RowAddr, now: Picos) {
        self.lock().on_restore(bank, row, now);
    }
    fn set_temperature(&mut self, celsius: f64) {
        self.lock().set_temperature(celsius);
    }
    fn temperature(&self) -> f64 {
        self.0.lock().unwrap().temperature()
    }
}

pub const BANK: BankId = BankId(1);

/// One module plus a handle on its fault model.
pub struct Rig {
    pub module: DramModule,
    pub model: Arc<Mutex<RowHammerModel>>,
}

impl Rig {
    pub fn new(mfr: Manufacturer, seed: u64, celsius: f64) -> Self {
        let model = Arc::new(Mutex::new(RowHammerModel::new(mfr, seed)));
        let mut module =
            DramModule::with_model(ModuleConfig::ddr4(mfr), Box::new(Shared(Arc::clone(&model))));
        module.set_temperature(celsius);
        Self { module, model }
    }
}
