#include "record/sysinfo.hh"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <thread>

#include "util/string_utils.hh"

namespace sharp
{
namespace record
{

void
SystemInfo::addToMetadata(MetadataDocument &doc) const
{
    const std::string sec = "System Under Test";
    doc.set(sec, "hostname", hostname);
    doc.set(sec, "os", os);
    doc.set(sec, "kernel", kernel);
    doc.set(sec, "cpu_model", cpuModel);
    doc.set(sec, "cpu_cores", std::to_string(cpuCores));
    doc.set(sec, "cpu_threads", std::to_string(cpuThreads));
    doc.set(sec, "memory_mib", std::to_string(memoryMib));
    doc.set(sec, "gpu_model", gpuModel.empty() ? "none" : gpuModel);
    doc.set(sec, "simulated", simulated ? "true" : "false");
}

SystemInfo
SystemInfo::fromMetadata(const MetadataDocument &doc)
{
    const std::string sec = "System Under Test";
    SystemInfo info;
    info.hostname = doc.get(sec, "hostname").value_or("");
    info.os = doc.get(sec, "os").value_or("");
    info.kernel = doc.get(sec, "kernel").value_or("");
    info.cpuModel = doc.get(sec, "cpu_model").value_or("");
    if (auto cores = doc.getNumber(sec, "cpu_cores"))
        info.cpuCores = static_cast<int>(*cores);
    if (auto threads = doc.getNumber(sec, "cpu_threads"))
        info.cpuThreads = static_cast<int>(*threads);
    if (auto mem = doc.getNumber(sec, "memory_mib"))
        info.memoryMib = static_cast<long>(*mem);
    std::string gpu = doc.get(sec, "gpu_model").value_or("none");
    info.gpuModel = gpu == "none" ? "" : gpu;
    info.simulated = doc.get(sec, "simulated").value_or("false") == "true";
    return info;
}

SystemInfo
captureHostInfo()
{
    SystemInfo info;

    char host[256] = {};
    if (gethostname(host, sizeof(host) - 1) == 0)
        info.hostname = host;

    struct utsname names{};
    if (uname(&names) == 0) {
        info.os = names.sysname;
        info.kernel = names.release;
    }

    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    int cores = 0;
    while (std::getline(cpuinfo, line)) {
        if (util::startsWith(line, "processor"))
            ++cores;
        if (info.cpuModel.empty() &&
            util::startsWith(line, "model name")) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                info.cpuModel = util::trim(line.substr(colon + 1));
        }
    }
    info.cpuCores = cores;
    info.cpuThreads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

    std::ifstream meminfo("/proc/meminfo");
    while (std::getline(meminfo, line)) {
        if (util::startsWith(line, "MemTotal:")) {
            auto parts = util::split(util::trim(line.substr(9)), ' ');
            if (!parts.empty()) {
                if (auto kib = util::parseLong(parts.front()))
                    info.memoryMib = *kib / 1024;
            }
            break;
        }
    }
    return info;
}

SystemInfo
describeSimulatedMachine(const sim::MachineSpec &machine)
{
    SystemInfo info;
    info.hostname = machine.id;
    info.os = "Linux (simulated)";
    info.kernel = "5.15.0-116-generic";
    info.cpuModel = machine.cpu;
    info.cpuCores = machine.cores;
    info.cpuThreads = machine.cores;
    info.memoryMib = static_cast<long>(machine.ramGib) * 1024;
    if (machine.gpu.has_value())
        info.gpuModel = machine.gpu->name;
    info.simulated = true;
    return info;
}

} // namespace record
} // namespace sharp
