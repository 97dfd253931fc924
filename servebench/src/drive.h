#ifndef SERVEBENCH_DRIVE_H_
#define SERVEBENCH_DRIVE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct DriveArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  ///< Where the fact file is written.
};

/// One measured or traced run; prints the result line and returns the
/// process exit code.
int Drive(const DriveArgs& args);

/// Feeds corrupted responses to the checker and reports whether each was
/// rejected; returns the process exit code.
int SelfTest(const std::string& work_dir);

/// A named figure with its unit, as printed in the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_DRIVE_H_
