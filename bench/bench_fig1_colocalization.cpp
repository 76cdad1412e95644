// Fig. 1: Energy savings by colocalising computation and storage.
//
// The digital path pays per-bit data movement between separate storage
// and compute units ("up to 90%" of its energy, Sec. 1); the analog
// pCAM path computes in the storage itself. This bench reproduces the
// breakdown for an n-bit match operation on both paths.
#include "bench_util.hpp"

#include "analognf/common/units.hpp"
#include "analognf/device/memristor.hpp"
#include "analognf/energy/movement.hpp"
#include "analognf/energy/standby.hpp"
#include "analognf/tcam/tcam.hpp"

namespace {

using namespace analognf;

void Report() {
  bench::Banner("Fig. 1: energy split, digital (separate units) vs analog "
                "(colocalised)");

  const energy::DataMovementModel movement;
  Table table({"Path", "Bits", "Compute", "Movement", "Total",
               "Movement share"});

  for (std::uint64_t bits : {8ull, 32ull, 104ull, 1024ull}) {
    const energy::MovementBreakdown digital = movement.CostOf(bits);
    table.AddRow({"digital CMOS", std::to_string(bits),
                  FormatEnergy(digital.compute_j),
                  FormatEnergy(digital.movement_j),
                  FormatEnergy(digital.total_j),
                  FormatSig(digital.movement_fraction * 100.0, 3) + " %"});
  }

  // The analog path: an n-cell pCAM word evaluated in place. All the
  // energy is dissipated inside the storage devices; movement is zero.
  // Operating point as in Sec. 6 / Table 1: low-voltage (0.1 V) read of
  // low-energy (high-resistance) states, two devices per cell.
  const device::Memristor hrs(device::MemristorParams::NbSrTiO3(), 0.0);
  const double per_cell_j = 2.0 * hrs.ReadEnergyJ(0.1);
  for (std::uint64_t bits : {8ull, 32ull, 104ull, 1024ull}) {
    const double total = per_cell_j * static_cast<double>(bits);
    table.AddRow({"analog pCAM", std::to_string(bits),
                  FormatEnergy(total), FormatEnergy(0.0),
                  FormatEnergy(total), "0 %"});
  }
  bench::PrintTable(table);

  const energy::MovementBreakdown d104 = movement.CostOf(104);
  bench::Line("paper: digital spends up to 90% of energy on data movement");
  bench::Line("measured: digital movement share = " +
              FormatSig(d104.movement_fraction * 100.0, 3) +
              " % on a 104-bit key; analog = 0 % (computation in storage)");

  // The other half of the Sec. 2 argument: volatility. A powered-but-
  // idle CMOS table leaks; a non-volatile memristor table does not.
  bench::Banner("Sec. 2 corollary: standby energy of an idle 1 Mbit table");
  const energy::StandbyModel standby;
  Table idle({"idle time", "CMOS leakage", "memristor"});
  for (double t : {0.001, 1.0, 3600.0}) {
    const energy::StandbyBreakdown cost = standby.CostOf(1u << 20, t);
    idle.AddRow({FormatDuration(t), FormatEnergy(cost.cmos_idle_j),
                 FormatEnergy(cost.memristor_idle_j)});
  }
  bench::PrintTable(idle);
}

// --- timings ------------------------------------------------------------

void BM_DigitalTcamSearch(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  tcam::TcamTable table(104, tcam::TcamTechnology::TransistorCmos());
  for (std::size_t i = 0; i < entries; ++i) {
    table.Insert({tcam::TernaryWord::FromPrefix(
                      static_cast<std::uint32_t>(i) << 8, 24)
                      .Append(tcam::TernaryWord::FromPrefix(0, 0))
                      .Append(tcam::TernaryWord::FromString(
                          std::string(40, 'X'))),
                  static_cast<std::uint32_t>(i), 0});
  }
  table.Commit();
  tcam::BitKey key;
  key.AppendU32(42 << 8);
  key.AppendU32(7);
  key.AppendU32(9);
  key.AppendU8(17);
  const auto snap = table.snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap->engine.Search(key));
  }
  state.counters["energy_fJ_per_search"] =
      ToFemtojoules(table.SearchEnergyJ());
}
BENCHMARK(BM_DigitalTcamSearch)->Arg(16)->Arg(128)->Arg(1024);

void BM_MovementModelCost(benchmark::State& state) {
  const energy::DataMovementModel movement;
  for (auto _ : state) {
    benchmark::DoNotOptimize(movement.CostOf(104));
  }
}
BENCHMARK(BM_MovementModelCost);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
