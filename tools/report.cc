/**
 * @file
 * The report CLI: `report bench|slo|anatomy|diff ...`. Everything it
 * does lives in report.hh, where the tests reach it; see that file for
 * the subcommands, their flags and the exit codes.
 */

#include "report.hh"

int
main(int argc, char **argv)
{
    return aquoman::tools::reportMain(argc, argv);
}
