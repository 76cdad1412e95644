// Programming abstractions for analog network functions (Sec. 5).
//
// The paper sketches a declarative surface for analog match-action
// tables:
//
//   function prog_pCAM()  { program(M1,M2,M3,M4,Sa,Sb,pmax,pmin); }
//   function pCAM(in,out) { ...five-region transfer... }
//   function AQM()        { drop = pipeline { pCAM(sojourn_time), ... } }
//   table analogAQM       { read {...} output { AQM(); } action { update_pCAM(); } }
//   action update_pCAM(id, parameter[1:8]) { set_field(...); }
//
// This module is that surface: an AnalogTableSpec declares the read
// fields and per-field pCAM programs; AnalogMatchActionTable compiles it
// onto hardware cells, evaluates the output section, and exposes
// update_pCAM as the action. The AQM network function (src/aqm) and the
// examples program themselves exclusively through this API, as an
// application would.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analognf/core/pipeline.hpp"

namespace analognf::core {

// prog_pCAM(): names the paper's eight-parameter program explicitly.
// (PcamParams is the storage type; this wrapper documents intent at call
// sites that mirror the paper's listings.)
inline PcamParams ProgPcam(double m1, double m2, double m3, double m4,
                           double sa, double sb, double pmax, double pmin) {
  PcamParams p;
  p.m1 = m1;
  p.m2 = m2;
  p.m3 = m3;
  p.m4 = m4;
  p.sa = sa;
  p.sb = sb;
  p.pmax = pmax;
  p.pmin = pmin;
  p.Validate();
  return p;
}

// Declaration of one read field and its match program.
struct AnalogFieldSpec {
  std::string name;     // e.g. "sojourn_time", "d2/dt2(buffer_size)"
  PcamParams program;   // prog_pCAM parameters for this field
};

// Declaration of an analog match-action table.
struct AnalogTableSpec {
  std::string name;
  std::vector<AnalogFieldSpec> read;   // the `read { ... }` section
  CombineMode combine = CombineMode::kProduct;

  void Validate() const;  // throws std::invalid_argument
};

// A compiled analog match-action table.
class AnalogMatchActionTable {
 public:
  struct Output {
    double value = 0.0;              // raw analog output (e.g. the PDP)
    std::vector<double> per_field;   // per-stage outputs
    double energy_j = 0.0;
  };

  AnalogMatchActionTable(AnalogTableSpec spec,
                         HardwarePcamConfig hardware);

  // The `output { ... }` section: evaluates the pipeline on a feature
  // vector ordered like spec().read. Writes into `out`, reusing its
  // per_field capacity (and an internal pipeline scratch result), so a
  // per-packet caller never allocates.
  void Apply(const std::vector<double>& features, Output& out);

  // The `action { update_pCAM(); }` section: reprograms field `id`.
  void UpdatePcam(std::size_t id, const PcamParams& parameters);
  // Same, addressing the field by name. Throws if the name is unknown.
  void UpdatePcam(const std::string& field_name,
                  const PcamParams& parameters);

  // Index of a read field by name (nullopt if absent).
  std::optional<std::size_t> FieldIndex(const std::string& name) const;

  const AnalogTableSpec& spec() const { return spec_; }
  PcamPipeline& pipeline() { return pipeline_; }
  const PcamPipeline& pipeline() const { return pipeline_; }

 private:
  AnalogTableSpec spec_;
  PcamPipeline pipeline_;
  PcamPipeline::Result apply_scratch_;
};

}  // namespace analognf::core
