(** Small-signal µA741 operational amplifier.

    The full 24-transistor Fairchild topology (input stage Q1-Q9, bias
    chain Q10-Q13, gain stage Q16/Q17, Vbe multiplier Q18/Q19, class-AB
    output Q14/Q20, protection devices Q15/Q21-Q24 modelled weakly on),
    datasheet resistors, the 30 pF compensation capacitor, and a 2 kohm /
    100 pF load.  Every BJT is expanded into its hybrid-pi model with
    base-spreading resistance and (where the collector is not at an AC
    ground) collector-substrate capacitance, so the voltage-gain denominator
    reaches the ~48th order analysed in Tables 2-3 of the paper.

    This is the documented substitution for the paper's proprietary µA741
    netlist: the topology and bias currents follow the classic schematic,
    the junction capacitances follow a vintage bipolar process (lateral PNPs
    with ~20 ns transit time), so the property the algorithm exercises — a
    ~1e6..1e9 magnitude ratio between consecutive coefficients over ~48
    orders — is preserved even though absolute coefficient values differ
    from the authors'. *)

val circuit : Netlist.t
val input_p : string
val input_n : string
val output : string
