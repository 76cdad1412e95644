#include "analognf/core/program.hpp"

#include <stdexcept>

namespace analognf::core {
namespace {

std::vector<StageConfig> ToStages(const AnalogTableSpec& spec) {
  std::vector<StageConfig> stages;
  stages.reserve(spec.read.size());
  for (const AnalogFieldSpec& field : spec.read) {
    stages.push_back({field.name, field.program});
  }
  return stages;
}

}  // namespace

void AnalogTableSpec::Validate() const {
  if (name.empty()) {
    throw std::invalid_argument("AnalogTableSpec: empty table name");
  }
  if (read.empty()) {
    throw std::invalid_argument("AnalogTableSpec: empty read section");
  }
  for (const AnalogFieldSpec& field : read) {
    if (field.name.empty()) {
      throw std::invalid_argument("AnalogTableSpec: unnamed read field");
    }
    field.program.Validate();
  }
}

AnalogMatchActionTable::AnalogMatchActionTable(AnalogTableSpec spec,
                                               HardwarePcamConfig hardware)
    : spec_([&] {
        spec.Validate();
        return std::move(spec);
      }()),
      pipeline_(ToStages(spec_), hardware, spec_.combine) {}

void AnalogMatchActionTable::Apply(const std::vector<double>& features,
                                   Output& out) {
  pipeline_.Evaluate(features, apply_scratch_);
  out.value = apply_scratch_.combined;
  out.per_field.assign(apply_scratch_.stage_outputs.begin(),
                       apply_scratch_.stage_outputs.end());
  out.energy_j = apply_scratch_.energy_j;
}

void AnalogMatchActionTable::UpdatePcam(std::size_t id,
                                        const PcamParams& parameters) {
  pipeline_.ProgramStage(id, parameters);
  spec_.read.at(id).program = parameters;
}

void AnalogMatchActionTable::UpdatePcam(const std::string& field_name,
                                        const PcamParams& parameters) {
  const auto index = FieldIndex(field_name);
  if (!index.has_value()) {
    throw std::invalid_argument(
        "AnalogMatchActionTable::UpdatePcam: unknown field " + field_name);
  }
  UpdatePcam(*index, parameters);
}

std::optional<std::size_t> AnalogMatchActionTable::FieldIndex(
    const std::string& name) const {
  for (std::size_t i = 0; i < spec_.read.size(); ++i) {
    if (spec_.read[i].name == name) return i;
  }
  return std::nullopt;
}

}  // namespace analognf::core
